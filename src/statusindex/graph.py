"""Undirected simple graphs with exact-integer distance invariants.

Vertices are dense 0-based integers. Graphs are immutable after
construction, and every graph, whatever built it, is validated exactly
once, in ``Graph.__post_init__``: sorted rows of in-range neighbors, no
self-loops, no duplicate neighbors, symmetric adjacency. The edge-list
parser adds only the checks that need the text's lines. All
distance quantities are plain Python integers, so sums such as the
Wiener index never overflow or round.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import lt
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
        n, rows = self.n, self.adjacency
        if n <= 0:
            raise GraphError(f"vertex count must be positive, got {n}")
        if len(rows) != n:
            raise GraphError(f"adjacency has {len(rows)} rows for n={n}")
        # One O(n + m) pass. The transpose gets its sources in increasing
        # order, so its rows come out sorted and symmetry is row equality.
        transpose: list[list[int]] = [[] for _ in range(n)]
        for u, row in enumerate(rows):
            if not row:
                continue
            if u in row:
                raise GraphError(f"self-loop at vertex {u}")
            if not all(map(lt, row, row[1:])):
                v = next((v for v, w in zip(row, row[1:]) if v == w), None)
                repeated = "" if v is None else f"duplicate edge ({u}, {v}): "
                raise GraphError(f"{repeated}adjacency[{u}] not sorted/deduplicated")
            if row[0] < 0 or row[-1] >= n:
                bad = row[0] if row[0] < 0 else row[-1]
                raise GraphError(f"neighbor {bad} of vertex {u} out of range")
            for v in row:
                transpose[v].append(u)
        for u, row in enumerate(rows):
            if tuple(transpose[u]) != tuple(row):
                v = min(set(row).symmetric_difference(transpose[u]))
                a, b = (u, v) if v in row else (v, u)
                raise GraphError(f"asymmetric adjacency: {a}->{b} without {b}->{a}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from an iterable of (u, v) pairs. Ids are range
        checked as they come, so a negative one cannot wrap to another row;
        validating the sorted rows rejects self-loops and duplicate edges."""
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        for row in rows:
            row.sort()
        return cls(n, tuple(map(tuple, rows)))

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

    Lines are blank, ``# comment``, an optional ``n <N>`` header on the
    first content line, or an edge ``<u> <v>`` of 0-based vertex ids in
    ASCII digits. Without a header the vertex count is one more than
    the largest id seen. Duplicate edges and self-loops are errors, not
    merged, and so is a vertex count above DEFAULT_MAX_VERTICES.

    One pass checks each line as it reads it, ids against the header or
    the cap before anything of that size is allocated; each error names
    its line. Repeated edges are left to the graph's validation: only
    when it rejects one does the parser look up the line that repeats it.
    """
    header_n: int | None = None
    ids: dict[str, int] = {}  # token -> vertex id, each checked once
    pairs: list[tuple[int, int] | None] = []  # one per line, None off edges
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            a, b = line.split()
            pair = ids[a], ids[b]
        except (ValueError, KeyError):
            pair = None
        if pair is None:  # not two known ids: read the line in full
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                pairs.append(None)
                continue
            if parts[0] == "n" and header_n is None and not any(pairs):
                header_n = _vertex_id(parts[1]) if len(parts) == 2 else None
                if header_n is None:
                    raise ParseError(f"line {lineno}: malformed header {line.strip()!r}")
                if header_n <= 0:
                    raise ParseError(f"line {lineno}: vertex count must be positive")
                if header_n > DEFAULT_MAX_VERTICES:
                    raise ParseError(
                        f"line {lineno}: vertex count {header_n} exceeds the cap "
                        f"of {DEFAULT_MAX_VERTICES}"
                    )
                ids = {str(v): v for v in range(header_n)}  # the canonical ids
                pairs.append(None)
                continue
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '<u> <v>', got {line.strip()!r}")
            u, v = map(_vertex_id, parts)
            if u is None or v is None:
                negative = any(p[:1] == "-" and _vertex_id(p[1:]) is not None for p in parts)
                what = "negative" if negative else "non-integer"
                raise ParseError(f"line {lineno}: {what} vertex id in {line.strip()!r}")
            if max(u, v) >= (header_n or DEFAULT_MAX_VERTICES):
                if header_n is None:
                    raise ParseError(
                        f"line {lineno}: vertex id {max(u, v)} exceeds the cap "
                        f"of {DEFAULT_MAX_VERTICES} vertices"
                    )
                raise ParseError(
                    f"line {lineno}: edge ({u}, {v}) exceeds declared vertex count {header_n}"
                )
            ids[parts[0]], ids[parts[1]] = u, v
            pair = u, v
        u, v = pair
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        pairs.append(pair)
    if header_n is None and not ids:
        raise ParseError("no edges and no 'n <N>' header: vertex count unknown")
    try:
        return Graph.from_edges(header_n or 1 + max(ids.values()), filter(None, pairs))
    except GraphError:
        # Every edge passed its line's checks, so the graph rejected a
        # repeated one: name the line that repeats an earlier edge.
        seen: set[frozenset[int]] = set()
        for lineno, pair in enumerate(pairs, start=1):
            if pair is not None:
                if (key := frozenset(pair)) in seen:
                    raise ParseError(
                        f"line {lineno}: duplicate edge {pair[0]} {pair[1]}"
                    ) from None
                seen.add(key)
        raise


def _vertex_id(token: str) -> int | None:
    """``token`` as a vertex id or count, or None unless it is ASCII
    digits; ``int`` alone also reads ``+1``, ``1_0`` and other scripts'
    digits."""
    if not (token.isdigit() and token.isascii()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() reads
        return None


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
