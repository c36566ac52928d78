"""Undirected simple graphs with exact-integer distance invariants.

Vertices are dense 0-based integers. Graphs are immutable after
construction, and every graph, whatever built it, is validated exactly
once, in ``Graph.__post_init__``: sorted rows of in-range neighbors, no
self-loops, no duplicate neighbors, symmetric adjacency. All
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
            if not all(map(lt, row, row[1:])):
                raise GraphError(f"adjacency[{u}] not sorted/deduplicated")
            if row[0] < 0 or row[-1] >= n:
                bad = row[0] if row[0] < 0 else row[-1]
                raise GraphError(f"neighbor {bad} of vertex {u} out of range")
            if u in row:
                raise GraphError(f"self-loop at vertex {u}")
            for v in row:
                transpose[v].append(u)
        for u, row in enumerate(rows):
            if tuple(transpose[u]) != tuple(row):
                v = min(set(row).symmetric_difference(transpose[u]))
                a, b = (u, v) if v in row else (v, u)
                raise GraphError(f"asymmetric adjacency: {a}->{b} without {b}->{a}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from an iterable of (u, v) pairs.

        Rejects self-loops, out-of-range ids, and duplicate edges (in
        either orientation) instead of silently merging them.
        """
        if n <= 0:
            raise GraphError(f"vertex count must be positive, got {n}")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        for u, row in enumerate(rows):
            row.sort()
            if u in row:
                raise GraphError(f"self-loop at vertex {u}")
            if len(set(row)) != len(row):
                v = next(v for v, w in zip(row, row[1:]) if v == w)
                raise GraphError(f"duplicate edge ({u}, {v})")
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

    Lines are blank, ``# comment``, an optional leading ``n <N>``
    header, or an edge ``<u> <v>`` of 0-based vertex ids in ASCII
    digits. Without a header the vertex count is one more than the
    largest id seen. Duplicate edges and self-loops are errors, not
    merged, and so is a vertex count above DEFAULT_MAX_VERTICES, checked
    before anything of that size is allocated.

    The text is checked in bulk, without line numbers; when a check
    fails, ``_first_error`` rereads it line by line to name the line.
    """
    body = text
    if "#" in text:
        kept = (line for line in text.splitlines() if not line.lstrip().startswith("#"))
        body = "\n".join(kept)
    if not set(map(len, map(str.split, body.splitlines()))) <= {0, 2}:
        raise _first_error(text)
    tokens = body.split()
    header_n: int | None = None
    if tokens[:1] == ["n"]:
        header_n = _vertex_id(tokens[1])
        if header_n is None or not 0 < header_n <= DEFAULT_MAX_VERTICES:
            raise _first_error(text)
        del tokens[:2]
    # Ids written canonically and below the header's count, as in every
    # file `generate` writes, are dictionary hits: several times faster
    # than int(), and the rows share one int object per vertex.
    known = {str(v): v for v in range(header_n or 0)}
    try:
        ids = list(map(known.__getitem__, tokens))
    except KeyError:
        ids = list(map(_vertex_id, tokens))
        if None in ids:
            raise _first_error(text) from None
    del tokens  # the largest temporary; freed before the rows are built
    if header_n is None and not ids:
        raise _first_error(text)  # the vertex count is unknown
    n = header_n or 1 + max(ids)
    if n > DEFAULT_MAX_VERTICES:
        raise _first_error(text)
    pairs = iter(ids)
    try:
        return Graph.from_edges(n, zip(pairs, pairs))
    except GraphError:
        raise _first_error(text) from None


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


def _first_error(text: str) -> ParseError:
    """The error for the first invalid line of ``text``, found by
    rereading it line by line. parse_edge_list calls this only once a
    bulk check has failed, so its own pass tracks no line numbers."""
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
            saw_content = True
            header_n = _vertex_id(parts[1]) if len(parts) == 2 else None
            if header_n is None:
                return ParseError(f"line {lineno}: malformed header {line!r}")
            if header_n <= 0:
                return ParseError(f"line {lineno}: vertex count must be positive")
            if header_n > DEFAULT_MAX_VERTICES:
                return ParseError(
                    f"line {lineno}: vertex count {header_n} exceeds the cap "
                    f"of {DEFAULT_MAX_VERTICES}"
                )
            continue
        saw_content = True
        if len(parts) != 2:
            return ParseError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        u, v = map(_vertex_id, parts)
        if u is None or v is None:
            negative = any(p[:1] == "-" and _vertex_id(p[1:]) is not None for p in parts)
            what = "negative" if negative else "non-integer"
            return ParseError(f"line {lineno}: {what} vertex id in {line!r}")
        if u == v:
            return ParseError(f"line {lineno}: self-loop {u} {v}")
        key = (min(u, v), max(u, v))
        if key in seen:
            return ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if header_n is not None:
        for u, v in edges:
            if u >= header_n or v >= header_n:
                return ParseError(f"edge ({u}, {v}) exceeds declared vertex count {header_n}")
    elif not edges:
        return ParseError("no edges and no 'n <N>' header: vertex count unknown")
    elif (top := max(map(max, edges))) >= DEFAULT_MAX_VERTICES:
        return ParseError(f"vertex id {top} exceeds the cap of {DEFAULT_MAX_VERTICES} vertices")
    raise RuntimeError("edge list failed a bulk check, but no line of it is invalid")


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
