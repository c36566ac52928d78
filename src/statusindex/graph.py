"""Undirected simple graphs with exact-integer distance invariants.

Vertices are dense 0-based integers. Graphs are immutable after
construction; every constructor validates the simple-graph invariants
(no self-loops, no duplicate neighbors, symmetric adjacency). All
distance quantities are plain Python integers, so sums such as the
Wiener index never overflow or round.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

#: Largest vertex count that parsing and generation accept by default.
DEFAULT_MAX_VERTICES = 20_000

#: Sources per pass of the transmission engine. Each per-vertex bitset
#: holds one bit per source of the pass, so at the vertex cap one array
#: of them stays near 10 MB.
SOURCE_BLOCK = 4096


class GraphError(ValueError):
    """Base class for invalid graph inputs."""


class ParseError(GraphError):
    """Malformed edge-list text."""


class DisconnectedGraphError(GraphError):
    """A computation that needs a connected graph got a disconnected one."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph as sorted adjacency lists.

    ``adjacency[u]`` is the sorted tuple of neighbors of vertex ``u``.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise GraphError(f"vertex count must be positive, got {self.n}")
        if len(self.adjacency) != self.n:
            raise GraphError(
                f"adjacency has {len(self.adjacency)} rows for n={self.n}"
            )
        seen: set[tuple[int, int]] = set()
        for u, nbrs in enumerate(self.adjacency):
            prev = -1
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise GraphError(f"neighbor {v} of vertex {u} out of range")
                if v == u:
                    raise GraphError(f"self-loop at vertex {u}")
                if v <= prev:
                    raise GraphError(f"adjacency[{u}] not sorted/deduplicated")
                prev = v
                seen.add((u, v))
        for u, v in seen:
            if (v, u) not in seen:
                raise GraphError(f"asymmetric adjacency: {u}->{v} without {v}->{u}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from an iterable of (u, v) pairs.

        Rejects self-loops, out-of-range ids, and duplicate edges (in
        either orientation) instead of silently merging them.
        """
        if n <= 0:
            raise GraphError(f"vertex count must be positive, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    @cached_property
    def m(self) -> int:
        """Number of edges."""
        half = sum(len(nbrs) for nbrs in self.adjacency)
        return half // 2

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adjacency)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Unordered non-adjacent pairs (u, v) with u < v."""
        for u in range(self.n):
            nbrs = self.neighbor_sets[u]
            for v in range(u + 1, self.n):
                if v not in nbrs:
                    yield u, v


@dataclass(frozen=True)
class TransmissionProfile:
    """Per-vertex status values plus the derived distance invariants.

    ``sigma[u]`` is the transmission (status) of ``u``: the sum of
    distances from ``u`` to every other vertex. ``wiener`` is half the
    total transmission, ``diameter`` the largest pairwise distance, and
    ``regular_k`` is set exactly when every vertex has the same
    transmission (the graph is k-transmission regular).
    """

    sigma: tuple[int, ...]
    wiener: int
    diameter: int
    regular_k: int | None


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Lines are blank, ``# comment``, an optional leading ``n <N>``
    header, or an edge ``<u> <v>`` of 0-based vertex ids. Without a
    header the vertex count is one more than the largest id seen.
    Duplicate edges and self-loops are errors, not merged, and so is a
    vertex count above DEFAULT_MAX_VERTICES, checked before anything of
    that size is allocated.
    """
    header_n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not saw_content and parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                header_n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from None
            if header_n <= 0:
                raise ParseError(f"line {lineno}: vertex count must be positive")
            if header_n > DEFAULT_MAX_VERTICES:
                raise ParseError(
                    f"line {lineno}: vertex count {header_n} exceeds the cap "
                    f"of {DEFAULT_MAX_VERTICES}"
                )
            saw_content = True
            continue
        saw_content = True
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))

    if header_n is not None:
        n = header_n
        for u, v in edges:
            if u >= n or v >= n:
                raise ParseError(f"edge ({u}, {v}) exceeds declared vertex count {n}")
    else:
        if not edges:
            raise ParseError("no edges and no 'n <N>' header: vertex count unknown")
        n = 1 + max(max(u, v) for u, v in edges)
        if n > DEFAULT_MAX_VERTICES:
            raise ParseError(
                f"vertex id {n - 1} exceeds the cap of {DEFAULT_MAX_VERTICES} vertices"
            )
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text: ``n <N>`` header, then edges sorted
    lexicographically. Identical graphs always serialize byte-for-byte
    identically."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def complement(g: Graph) -> Graph:
    """The complement graph: uv is an edge iff it is not one in ``g``.

    Total: the result may be disconnected; connectivity is the caller's
    concern (index computations reject disconnected graphs).
    """
    nbrs = g.neighbor_sets
    adjacency = tuple(
        tuple(v for v in range(g.n) if v != u and v not in nbrs[u])
        for u in range(g.n)
    )
    return Graph(g.n, adjacency)


def profile_from_rows(rows: Sequence[Iterable[int]]) -> TransmissionProfile:
    """Transmission profile of the graph whose vertex ``v`` has the
    neighbours ``rows[v]``; the rows must be symmetric and loop-free.

    Multi-source BFS over bitsets of sources: ``frontier[v]`` holds the
    sources at distance ``level`` from ``v`` and ``unreached[v]`` those
    farther away, so each level ORs the neighbours' frontiers, keeps the
    unreached bits and adds ``level`` per new bit to ``sigma[v]``. The
    last level is the diameter; an empty level that leaves sources
    unreached means the graph is disconnected. Sources run in blocks of
    SOURCE_BLOCK to bound the bitset sizes.
    """
    n = len(rows)
    sigma = [0] * n
    diameter = 0
    for lo in range(0, n, SOURCE_BLOCK):
        hi = min(lo + SOURCE_BLOCK, n)
        frontier = [0] * n
        for s in range(lo, hi):
            frontier[s] = 1 << (s - lo)
        block = (1 << (hi - lo)) - 1
        unreached = [block ^ f for f in frontier]
        level = 0
        while any(unreached):
            level += 1
            nxt = [0] * n
            for v, row in enumerate(rows):
                new = 0
                for u in row:
                    new |= frontier[u]
                new &= unreached[v]
                if new:
                    unreached[v] ^= new
                    sigma[v] += level * new.bit_count()
                    nxt[v] = new
            if not any(nxt):
                raise DisconnectedGraphError(
                    "graph is disconnected; indices need a connected graph"
                )
            frontier = nxt
        diameter = max(diameter, level)
    total = sum(sigma)
    if total % 2:
        raise ArithmeticError("total transmission must be even (each distance counted twice)")
    regular_k = sigma[0] if len(set(sigma)) == 1 else None
    return TransmissionProfile(
        sigma=tuple(sigma), wiener=total // 2, diameter=diameter, regular_k=regular_k
    )


def transmission_profile(g: Graph) -> TransmissionProfile:
    """All-pairs distances of ``g`` reduced to per-vertex transmissions."""
    return profile_from_rows(g.adjacency)
