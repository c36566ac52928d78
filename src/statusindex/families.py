"""Deterministic generators for the supported graph families.

Each family is one ``Family`` record in ``FAMILIES``: its parameter
names and its validity, order, edge-count and build rules. Subset-indexed
families (Kneser, intersection) order their vertices by colexicographic
rank of the subset, so adjacency files are reproducible byte-for-byte.
Generation is pure: identical specs give identical adjacency lists.
"""
from __future__ import annotations

from itertools import combinations, compress, filterfalse
from math import comb
from operator import lt
from typing import Callable, NamedTuple

from .graph import DEFAULT_MAX_VERTICES, MAX_EDGES, Graph, Value


class Family(NamedTuple):
    """The rules of one graph family, each called with the parameters in
    ``params`` order. ``check`` returns None when positive parameters
    define a connected graph, else the error text after the spec's label;
    ``order_above(cap, *params)`` tells whether the graph has more than
    ``cap`` vertices without forming an order far above the cap; ``edges``
    counts the edges in closed form; ``build`` builds the graph. No field
    has a default, so a family states every rule."""

    params: tuple[str, ...]
    check: Callable[..., str | None]
    order_above: Callable[..., bool]
    edges: Callable[..., int]
    build: Callable[..., Graph]


class FamilyError(ValueError):
    """Invalid family parameters."""


class VertexCapError(FamilyError):
    """Requested graph exceeds the vertex cap or the edge cap."""


class FamilySpec(Value):
    """A graph family tagged with its integer parameters. Immutable, and
    validated on construction; copies and unpickled specs are rebuilt
    through ``__init__`` and validated too. ``FamilySpec.<kind>(*params)``
    builds the spec of each kind in ``FAMILIES``."""

    __slots__ = ("kind", "params")
    _fields = ("kind", "params")

    kind: str
    params: tuple[int, ...]

    def __init__(self, kind: str, params: tuple[int, ...]) -> None:
        if kind not in FAMILIES:
            raise FamilyError(f"unknown family {kind!r}")
        names = FAMILIES[kind].params
        if len(params) != len(names):
            raise FamilyError(f"{kind} takes parameters {names}, got {params}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        validate(self)

    def label(self) -> str:
        names = FAMILIES[self.kind].params
        return f"{self.kind}({', '.join(f'{n}={v}' for n, v in zip(names, self.params))})"


def validate(spec: FamilySpec) -> None:
    """Raise FamilyError unless the parameters define a connected graph."""
    if any(v <= 0 for v in spec.params):
        raise FamilyError(f"{spec.label()}: parameters must be positive")
    problem = FAMILIES[spec.kind].check(*spec.params)
    if problem is not None:
        raise FamilyError(spec.label() + problem)


def above_cap(spec: FamilySpec, cap: int) -> bool:
    """Whether generate(spec) has more than ``cap`` vertices, by the
    family's ``order_above`` rule, which never forms an order far above
    the cap: ``2**n`` is compared by bit length, and a binomial is built
    from its partial products, which only grow, until one passes the cap."""
    return FAMILIES[spec.kind].order_above(cap, *spec.params)


def edge_count(spec: FamilySpec) -> int:
    """The number of edges of generate(spec), in closed form; for a spec
    within the vertex cap."""
    return FAMILIES[spec.kind].edges(*spec.params)


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
    return FAMILIES[spec.kind].build(*spec.params)


def _kneser_check(p: int, k: int) -> str | None:
    if p < k:
        return ": need p >= k"
    if p == 1:
        return " is K1, which has no closed forms; use path(n=1)"
    if k >= 2 and p == 2 * k:
        return ": p = 2k gives a disconnected perfect matching"
    if k >= 2 and p < 2 * k + 1:
        return ": need p >= 2k+1 for connectivity when k >= 2"
    return None


def _nanotorus_check(p: int, q: int) -> str | None:
    if p % 2 or q % 2:
        return ": p and q must be even for a consistent hexagonal torus"
    if p == q == 2:
        return (": no 3-regular realization exists at p = q = 2 "
                "(both lattice directions collapse)")
    return None


def _binomial_above(cap: int, p: int, k: int) -> bool:
    """Whether C(p, k) > cap, from the partial products C(p - k + i, i)."""
    k = min(k, p - k)
    order = 1
    for i in range(1, k + 1):
        order = order * (p - k + i) // i  # C(p - k + i, i)
        if order > cap:
            return True
    return order > cap


def _hypercube(n: int) -> Graph:
    size = 1 << n
    adjacency = tuple(
        tuple(sorted(u ^ (1 << b) for b in range(n))) for u in range(size)
    )
    return Graph(size, adjacency)


def _subset_graph(p: int, k: int, adjacent_when_disjoint: bool) -> Graph:
    # Subsets are keyed by their elements in decreasing order; combinations
    # of elements in decreasing order yields the keys in decreasing colex
    # rank, so reversed they come in colex order. A k-subset misses s
    # exactly when it is a k-subset of the complement of s, so the same
    # walk over the complement yields those C(p - k, k) keys in decreasing
    # rank. An intersection row is every other rank, kept by compress in
    # one C pass. Rows hold the ints of ``ranks``, so each rank is one object.
    ranks = tuple(range(comb(p, k)))
    top = range(p - 1, -1, -1)
    rank = dict(zip(reversed(list(combinations(top, k))), ranks))
    everyone = b"\1" * len(ranks)
    adjacency = []
    for u, s in enumerate(rank):
        rest = filterfalse(set(s).__contains__, top)
        row = tuple(map(rank.__getitem__, combinations(rest, k)))[::-1]
        if not adjacent_when_disjoint:
            keep = bytearray(everyone)
            keep[u] = 0  # every subset meets itself
            for v in row:
                keep[v] = 0
            row = tuple(compress(ranks, keep))
        adjacency.append(row)
    return Graph(len(ranks), adjacency)


def _nanotorus(p: int, q: int) -> Graph:
    """Hexagonal (brick-wall) lattice on a torus: ``rows`` closed zigzag
    rings of ``ring`` vertices each, with rungs between consecutive rings
    at alternating positions; vertex (r, c) has id r*ring + c.

    Rings run along the length direction q; that orientation makes the
    published per-vertex transmission formulas hold with the parameters
    as given. At q = 2 a ring would collapse its doubled bond and drop to
    degree 2, which ``Graph`` rejects as a duplicate edge, so the lattice
    is laid out transposed (rings along p); verification then reports the
    published-formula agreement as a (p, q) exchange.
    """
    rows, ring = (p, q) if q >= 4 else (q, p)
    edges = []
    for r in range(rows):
        base = r * ring
        for c in range(ring):
            edges.append((base + c, base + (c + 1) % ring))
            if (r + c) % 2 == 0:
                edges.append((base + c, ((r + 1) % rows) * ring + c))
    return Graph.from_edges(rows * ring, edges)


def _path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


#: kind -> its rules. The command-line parameter flags take the names in
#: the order they first appear here: --n, --p, --q, --k, --t.
FAMILIES: dict[str, Family] = {
    "hypercube": Family(
        params=("n",), check=lambda n: None, build=_hypercube,
        order_above=lambda cap, n: n >= max(cap, 0).bit_length(),
        edges=lambda n: n << (n - 1),
    ),
    "nanotorus": Family(
        params=("p", "q"), check=_nanotorus_check, build=_nanotorus,
        order_above=lambda cap, p, q: p * q > cap,
        edges=lambda p, q: 3 * p * q // 2,
    ),
    "kneser": Family(
        params=("p", "k"), check=_kneser_check, order_above=_binomial_above,
        edges=lambda p, k: comb(p, k) * comb(p - k, k) // 2,
        build=lambda p, k: _subset_graph(p, k, adjacent_when_disjoint=True),
    ),
    "intersection": Family(
        params=("p", "t"), order_above=_binomial_above,
        check=lambda p, t: None if 1 < t < p else ": need 1 < t < p",
        edges=lambda p, t: comb(p, t) * (comb(p, t) - comb(p - t, t) - 1) // 2,
        build=lambda p, t: _subset_graph(p, t, adjacent_when_disjoint=False),
    ),
    # graphs of order n: lt(cap, n) is n > cap
    "path": Family(("n",), lambda n: None, lt, lambda n: n - 1, _path),
    "cycle": Family(
        ("n",), lambda n: None if n >= 3 else ": a cycle needs n >= 3", lt, lambda n: n, _cycle,
    ),
    "complete": Family(("n",), lambda n: None, lt, lambda n: n * (n - 1) // 2, _complete),
}


def _constructor(kind: str) -> staticmethod:
    def construct(*params: int) -> FamilySpec:
        return FamilySpec(kind, params)
    construct.__qualname__ = f"FamilySpec.{kind}"
    return staticmethod(construct)


for _kind in FAMILIES:
    setattr(FamilySpec, _kind, _constructor(_kind))
