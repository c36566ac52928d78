"""Deterministic generators for the supported graph families.

Subset-indexed families (Kneser, intersection) order their vertices by
colexicographic rank of the subset, so adjacency files are reproducible
byte-for-byte. Generation is pure: identical specs give identical
adjacency lists.
"""
from __future__ import annotations

from itertools import combinations, compress
from math import comb, prod
from operator import not_

from .graph import DEFAULT_MAX_VERTICES, Graph

#: kind -> parameter names, in declaration order.
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "hypercube": ("n",),
    "kneser": ("p", "k"),
    "intersection": ("p", "t"),
    "nanotorus": ("p", "q"),
    "path": ("n",),
    "cycle": ("n",),
    "complete": ("n",),
}

class FamilyError(ValueError):
    """Invalid family parameters."""


class VertexCapError(FamilyError):
    """Requested graph exceeds the vertex cap or the edge cap."""


#: Most edges ``generate`` builds. Building a graph and writing it as an
#: edge list take about 155 bytes per edge, so this keeps ``generate``
#: near 300 MB; the vertex cap alone allows K20000, about 2 * 10^8 edges.
MAX_EDGES = 2_000_000


class FamilySpec:
    """A graph family tagged with its integer parameters. Immutable, and
    validated on construction; copies and unpickled specs are rebuilt
    through ``__init__`` and validated too."""

    __slots__ = ("kind", "params")

    kind: str
    params: tuple[int, ...]

    def __init__(self, kind: str, params: tuple[int, ...]) -> None:
        if kind not in FAMILY_PARAMS:
            raise FamilyError(f"unknown family {kind!r}")
        names = FAMILY_PARAMS[kind]
        if len(params) != len(names):
            raise FamilyError(f"{kind} takes parameters {names}, got {params}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        validate(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable FamilySpec")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable FamilySpec")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    def __repr__(self) -> str:
        return f"FamilySpec(kind={self.kind!r}, params={self.params!r})"

    def __reduce__(self) -> tuple[type[FamilySpec], tuple[str, tuple[int, ...]]]:
        return self.__class__, (self.kind, self.params)

    def label(self) -> str:
        inner = ", ".join(
            f"{name}={value}"
            for name, value in zip(FAMILY_PARAMS[self.kind], self.params)
        )
        return f"{self.kind}({inner})"

    @staticmethod
    def hypercube(n: int) -> FamilySpec:
        return FamilySpec("hypercube", (n,))

    @staticmethod
    def kneser(p: int, k: int) -> FamilySpec:
        return FamilySpec("kneser", (p, k))

    @staticmethod
    def intersection(p: int, t: int) -> FamilySpec:
        return FamilySpec("intersection", (p, t))

    @staticmethod
    def nanotorus(p: int, q: int) -> FamilySpec:
        return FamilySpec("nanotorus", (p, q))

    @staticmethod
    def path(n: int) -> FamilySpec:
        return FamilySpec("path", (n,))

    @staticmethod
    def cycle(n: int) -> FamilySpec:
        return FamilySpec("cycle", (n,))

    @staticmethod
    def complete(n: int) -> FamilySpec:
        return FamilySpec("complete", (n,))


def validate(spec: FamilySpec) -> None:
    """Raise FamilyError unless the parameters define a connected graph."""
    kind, params = spec.kind, spec.params
    if any(v <= 0 for v in params):
        raise FamilyError(f"{spec.label()}: parameters must be positive")
    if kind == "hypercube":
        return
    if kind == "kneser":
        p, k = params
        if p < k:
            raise FamilyError(f"{spec.label()}: need p >= k")
        if p == 1:
            raise FamilyError(f"{spec.label()} is K1, which has no closed forms; use path(n=1)")
        if k >= 2:
            if p == 2 * k:
                raise FamilyError(
                    f"{spec.label()}: p = 2k gives a disconnected perfect matching"
                )
            if p < 2 * k + 1:
                raise FamilyError(
                    f"{spec.label()}: need p >= 2k+1 for connectivity when k >= 2"
                )
        return
    if kind == "intersection":
        p, t = params
        if not 1 < t < p:
            raise FamilyError(f"{spec.label()}: need 1 < t < p")
        return
    if kind == "nanotorus":
        p, q = params
        if p % 2 or q % 2:
            raise FamilyError(
                f"{spec.label()}: p and q must be even for a consistent hexagonal torus"
            )
        if p < 2 or q < 2:
            raise FamilyError(f"{spec.label()}: need p, q >= 2")
        if p == 2 and q == 2:
            raise FamilyError(
                f"{spec.label()}: no 3-regular realization exists at p = q = 2 "
                "(both lattice directions collapse)"
            )
        return
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise FamilyError(f"{spec.label()}: a cycle needs n >= 3")
        return
    # path, complete: any positive n


def above_cap(spec: FamilySpec, cap: int) -> bool:
    """Whether generate(spec) has more than ``cap`` vertices, decided
    without forming an order far above the cap: ``2**n`` is compared by
    bit length, and a binomial is built from its partial products, which
    only grow, until one passes the cap. Every other family's order is
    the product of its parameters."""
    kind, params = spec.kind, spec.params
    if kind == "hypercube":
        return params[0] >= max(cap, 0).bit_length()
    if kind in ("kneser", "intersection"):
        p, k = params
        k = min(k, p - k)
        order = 1
        for i in range(1, k + 1):
            order = order * (p - k + i) // i  # C(p - k + i, i)
            if order > cap:
                return True
        return order > cap
    return prod(params) > cap


def edge_count(spec: FamilySpec) -> int:
    """The number of edges of generate(spec), in closed form; for a spec
    within the vertex cap."""
    kind, params = spec.kind, spec.params
    if kind == "hypercube":
        (n,) = params
        return n << (n - 1)
    if kind == "kneser":
        p, k = params
        return comb(p, k) * comb(p - k, k) // 2
    if kind == "intersection":
        p, t = params
        n = comb(p, t)
        return n * (n - comb(p - t, t) - 1) // 2
    if kind == "nanotorus":
        p, q = params
        return 3 * p * q // 2
    (n,) = params
    return {"path": n - 1, "cycle": n}.get(kind, n * (n - 1) // 2)


def colex_subsets(p: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {0..p-1} in colexicographic order."""
    return sorted(combinations(range(p), k), key=lambda s: s[::-1])


def _hypercube(n: int) -> Graph:
    size = 1 << n
    adjacency = tuple(
        tuple(sorted(u ^ (1 << b) for b in range(n))) for u in range(size)
    )
    return Graph(size, adjacency)


def _subset_graph(p: int, k: int, adjacent_when_disjoint: bool) -> Graph:
    # Subsets as bitmasks, so a & b is their intersection; compress
    # keeps the colex ranks whose intersection with a is (non)empty.
    bit = [1 << i for i in range(p)]
    masks = [sum(map(bit.__getitem__, s)) for s in colex_subsets(p, k)]
    ranks = range(len(masks))
    adjacency = []
    for u, a in enumerate(masks):
        meets = map(a.__and__, masks)
        row = list(compress(ranks, map(not_, meets) if adjacent_when_disjoint else meets))
        if not adjacent_when_disjoint:
            row.remove(u)  # every subset meets itself
        adjacency.append(tuple(row))
    return Graph(len(masks), tuple(adjacency))


def _polyhex_lattice(rows: int, ring: int) -> Graph:
    """Hexagonal (brick-wall) lattice on a torus: ``rows`` closed zigzag
    rings of ``ring`` vertices each, with rungs between consecutive rings
    at alternating positions.

    Vertex (r, c) has id r*ring + c. Callers pass an even ring >= 4 and
    even rows >= 2: a ring of 2 would collapse its doubled bond and drop
    to degree 2, which ``Graph`` rejects as a duplicate edge.
    """
    edges = []
    for r in range(rows):
        base = r * ring
        for c in range(ring):
            edges.append((base + c, base + (c + 1) % ring))
            if (r + c) % 2 == 0:
                edges.append((base + c, ((r + 1) % rows) * ring + c))
    return Graph.from_edges(rows * ring, edges)


def _nanotorus(p: int, q: int) -> Graph:
    # Rings run along the length direction q; that orientation makes the
    # published per-vertex transmission formulas hold with the parameters
    # as given. At q = 2 the ring direction collapses, so the lattice is
    # laid out transposed (rings along p); verification then reports the
    # published-formula agreement as a (p, q) exchange.
    if q >= 4:
        return _polyhex_lattice(rows=p, ring=q)
    return _polyhex_lattice(rows=q, ring=p)


def _path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def generate(spec: FamilySpec) -> Graph:
    """Build the graph for ``spec``; raises VertexCapError above the
    vertex cap or the edge cap, before anything is built."""
    if above_cap(spec, DEFAULT_MAX_VERTICES):
        raise VertexCapError(
            f"{spec.label()} has more vertices than the cap of {DEFAULT_MAX_VERTICES}"
        )
    m = edge_count(spec)
    if m > MAX_EDGES:
        raise VertexCapError(f"{spec.label()} has {m} edges, more than the cap of {MAX_EDGES}")
    kind, params = spec.kind, spec.params
    if kind == "hypercube":
        return _hypercube(params[0])
    if kind == "kneser":
        return _subset_graph(params[0], params[1], adjacent_when_disjoint=True)
    if kind == "intersection":
        return _subset_graph(params[0], params[1], adjacent_when_disjoint=False)
    if kind == "nanotorus":
        return _nanotorus(params[0], params[1])
    if kind == "path":
        return _path(params[0])
    if kind == "cycle":
        return _cycle(params[0])
    return _complete(params[0])
