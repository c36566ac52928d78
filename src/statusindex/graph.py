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

import io
from operator import lt
from typing import Any, Iterable, Iterator, NamedTuple, Sequence, TextIO

#: Largest vertex count that parsing and generation accept by default.
DEFAULT_MAX_VERTICES = 20_000

#: Most edges ``generate`` builds, and most complement edges
#: ``complement_rows`` lists. Building a graph and writing it as an edge
#: list take about 155 bytes per edge, so this keeps ``generate`` near
#: 300 MB; the vertex cap alone allows K20000, about 2 * 10^8 edges.
MAX_EDGES = 2_000_000

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


_DISCONNECTED = "graph is disconnected; indices need a connected graph"


class Value:
    """Base of the immutable values. ``_fields`` names the ``__init__``
    arguments; ``__init__`` stores them with ``object.__setattr__``, since
    assignment raises. Equality, hash and repr are those of the fields,
    and copy, deepcopy and pickle rebuild through ``__init__``, so a copy
    is validated as the original was."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable {type(self).__name__}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of an immutable {type(self).__name__}"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple[type[Value], tuple[Any, ...]]:
        return self.__class__, self._values()


class Graph(Value):
    """Immutable undirected simple graph as sorted adjacency lists.

    ``adjacency[u]`` is the sorted tuple of neighbors of vertex ``u``;
    ``degrees[u]`` is its length and ``m`` the number of edges. Every
    instance, copies and unpickled ones included, is built by
    ``__init__`` and so passes ``__post_init__``.
    """

    __slots__ = ("n", "adjacency", "degrees")
    _fields = ("n", "adjacency")

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    def __init__(self, n: int, adjacency: Iterable[Iterable[int]]) -> None:
        object.__setattr__(self, "n", n)
        # tuple() keeps a tuple row as it is and copies any other row
        object.__setattr__(self, "adjacency", tuple(map(tuple, adjacency)))
        self.__post_init__()
        object.__setattr__(self, "degrees", tuple(map(len, self.adjacency)))

    def __post_init__(self) -> None:
        n, rows = self.n, self.adjacency
        if n <= 0:
            raise GraphError(f"vertex count must be positive, got {n}")
        if len(rows) != n:
            raise GraphError(f"adjacency has {len(rows)} rows for n={n}")
        # One O(n + m) pass against the lower-triangle transpose: lower[u]
        # collects, in increasing order, each w < u whose row lists u. Row
        # u must be lower[u] followed by increasing entries above u and
        # below n, which rules out self-loops too. Only those upper entries
        # are then owed to later rows, so lower holds just the pairs still
        # to be checked.
        lower: list[list[int] | None] = [[] for _ in range(n)]
        for u, row in enumerate(rows):
            below = lower[u]
            lower[u] = None
            k = len(below)
            upper = row[k:]
            if row[:k] != tuple(below) or upper and (
                upper[0] <= u or upper[-1] >= n or not all(map(lt, upper, upper[1:]))
            ):
                _check_row(u, row, below, n)  # raises
            for v in upper:
                lower[v].append(u)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from an iterable of (u, v) pairs. Ids are range
        checked as they come, so a negative one cannot wrap to another row;
        validating the sorted rows rejects self-loops and duplicate edges."""
        rows: list[Any] = [[] for _ in range(n)]  # lists, then their tuples
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u].append(v)
            rows[v].append(u)
        for u, row in enumerate(rows):
            row.sort()
            rows[u] = tuple(row)  # the list goes as its tuple comes
        return cls(n, tuple(rows))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(self.degrees) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v


def _check_row(u: int, row: Sequence[int], below: list[int], n: int) -> None:
    """Raise the first fault of row ``u``: a self-loop, order, range, or
    a lower part other than ``below``, the w < u whose rows list ``u``."""
    if u in row:
        raise GraphError(f"self-loop at vertex {u}")
    if not all(map(lt, row, row[1:])):
        v = next((v for v, w in zip(row, row[1:]) if v == w), None)
        repeated = "" if v is None else f"duplicate edge ({u}, {v}): "
        raise GraphError(f"{repeated}adjacency[{u}] not sorted/deduplicated")
    if row and (row[0] < 0 or row[-1] >= n):
        bad = row[0] if row[0] < 0 else row[-1]
        raise GraphError(f"neighbor {bad} of vertex {u} out of range")
    lower_part = [v for v in row if v < u]
    if lower_part != below:
        v = min(set(below).symmetric_difference(lower_part))
        a, b = (u, v) if v in row else (v, u)
        raise GraphError(f"asymmetric adjacency: {a}->{b} without {b}->{a}")


def exact_div(numerator: int, denominator: int, what: str) -> int:
    """``numerator / denominator``, which must be an integer: a remainder
    is a broken invariant, and raises ArithmeticError naming ``what``,
    rather than being truncated away."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what} is not an integer: {numerator}/{denominator}")
    return quotient


class TransmissionProfile(NamedTuple):
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


def parse_edge_list(source: str | TextIO) -> Graph:
    """Parse edge-list text, or a seekable text file, into a Graph.

    Only ``\\n``, ``\\r\\n`` and ``\\r`` end a line. Lines are blank,
    ``# comment``, an optional ``n <N>`` header on the first content
    line, or an edge ``<u> <v>`` of 0-based vertex ids in ASCII digits.
    Without a header the vertex count is one more than the largest id
    seen. Duplicate edges and self-loops are errors, not merged, and so
    is a vertex count above DEFAULT_MAX_VERTICES.

    One pass checks each line as it reads it, ids against the header or
    the cap before anything of that size is allocated, and appends each
    edge straight to both endpoints' rows; no list of the edges is kept,
    and a file (opened with universal newlines, the default) is read a
    line at a time, never whole. Each error names its line. Repeated
    edges are left to the graph's validation: only when it rejects one
    are the lines read again, the file from its start, keeping only the
    repeated pairs, to name the line that repeats an earlier edge.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    header_n: int | None = None
    ids: dict[str, int] = {}  # canonical token -> vertex id, each checked once
    rows: list[Any] = []  # one list per vertex, allocated before any edge
    for lineno, line in enumerate(source, start=1):
        try:
            a, b = line.split()
            u, v = ids[a], ids[b]
        except (ValueError, KeyError):
            u = None
        if u is None:  # not two known ids: read the line in full
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "n" and not rows:  # no header and no edge yet
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
                rows = [[] for _ in range(header_n)]
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
            # keyed by the canonical token, so "007" adds no key and 7 is
            # stored as one int object however often it is written
            u, v = ids.setdefault(str(u), u), ids.setdefault(str(v), v)
            if max(u, v) >= len(rows):  # header-less: grow to the largest id
                rows.extend([] for _ in range(max(u, v) + 1 - len(rows)))
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        rows[u].append(v)
        rows[v].append(u)
    if not rows:
        raise ParseError("no edges and no 'n <N>' header: vertex count unknown")
    for u, row in enumerate(rows):
        row.sort()
        rows[u] = tuple(row)  # the list goes as its tuple comes
    try:
        return Graph(len(rows), tuple(rows))
    except GraphError:
        # Every edge passed its line's checks, so the graph rejected a
        # repeated one: a sorted row lists a repeated neighbour twice in a
        # row. Read the lines again, keeping only those pairs, to name the
        # line that repeats an earlier edge; only an edge line is two parts
        # that start with an id.
        repeated = {(u, v) for u, row in enumerate(rows)
                    for v, w in zip(row, row[1:]) if v == w and u < v}
        source.seek(0)
        seen: set[tuple[int, int]] = set()
        for lineno, line in enumerate(source, start=1):
            parts = line.split()
            if len(parts) != 2 or (u := _vertex_id(parts[0])) is None:
                continue
            v = _vertex_id(parts[1])
            if (key := (u, v) if u < v else (v, u)) in repeated:
                if key in seen:
                    raise ParseError(f"line {lineno}: duplicate edge {u} {v}") from None
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


def check_complement(g: Graph) -> None:
    """Raise GraphError when the complement of ``g`` has more than
    MAX_EDGES edges, the most ``complement_rows`` lists."""
    edges = g.n * (g.n - 1) // 2 - g.m
    if edges > MAX_EDGES:
        raise GraphError(f"the complement has {edges} edges, more than the cap of {MAX_EDGES}")


def complement_rows(g: Graph) -> list[list[int]]:
    """The sorted rows of the complement of ``g``: for each vertex, the
    vertices other than itself that are not its neighbours. Checks the
    edge cap (``check_complement``) before it lists any."""
    check_complement(g)
    vertices = set(range(g.n))
    return [sorted(vertices.difference(row, (u,))) for u, row in enumerate(g.adjacency)]


def profile_from_rows(rows: Sequence[Sequence[int]]) -> TransmissionProfile:
    """Transmission profile of the graph whose vertex ``v`` has the
    neighbours ``rows[v]``; the rows must be symmetric and loop-free.

    Multi-source BFS over bitsets of sources, one bit per source.
    ``unreached[v]`` holds the sources farther than ``level`` from
    ``v``. A source is farther than L from ``v`` exactly when it is
    farther than L - 1 from ``v`` and from every neighbour of ``v``.
    Each level visits the unfinished vertices as items ``(v, head,
    tail)``: the AND of ``unreached[head]`` and the sets of ``tail``,
    stopped at the first empty result, becomes ``v``'s next set, and a
    vertex whose set is empty is dropped. Levels 1 and 2 use ``(v, v,
    rows[v])``. From level 2 on ``v``'s own set adds nothing (``v`` is
    in no neighbour's set, and any other source farther than L - 1 from
    every neighbour is farther than L from ``v``), so after level 2 the
    items become ``(v, row[0], row[1:])``. A distance d counts once at
    each level below d, so ``sigma[v]`` is the sum over the levels of
    the popcount of ``unreached[v]``; level 0 gives every vertex n - 1.
    The diameter is the first level that leaves no source unreached. A
    level that changes no set, or an unfinished vertex without
    neighbours at the split, means the graph is disconnected. Sources
    run in blocks of SOURCE_BLOCK to bound the bitset sizes.
    """
    n = len(rows)
    sigma = [n - 1] * n
    diameter = 0
    for lo in range(0, n, SOURCE_BLOCK):
        hi = min(lo + SOURCE_BLOCK, n)
        block = (1 << (hi - lo)) - 1
        unreached = [block] * n
        for s in range(lo, hi):
            unreached[s] = block ^ (1 << (s - lo))
        active = [(v, v, row) for v, row in enumerate(rows) if unreached[v]]
        level = 0
        while active:
            level += 1
            nxt = [0] * n
            still = []
            for item in active:
                v, head, tail = item
                bits = unreached[head]
                for u in tail:
                    bits &= unreached[u]
                    if not bits:
                        break
                if bits:
                    nxt[v] = bits
                    sigma[v] += bits.bit_count()
                    still.append(item)
            if nxt == unreached:
                raise DisconnectedGraphError(_DISCONNECTED)
            unreached = nxt
            active = still
            if level == 2:
                # Rows are split only here, so a graph of diameter at
                # most 2 never copies one. An unfinished vertex without
                # neighbours is an isolated vertex beside others.
                active = [(v, row[0], row[1:]) for v, _, row in still if row]
                if len(active) < len(still):
                    raise DisconnectedGraphError(_DISCONNECTED)
        diameter = max(diameter, level)
    # each distance is counted from both ends
    wiener = exact_div(sum(sigma), 2, "half the total transmission")
    regular_k = sigma[0] if len(set(sigma)) == 1 else None
    return TransmissionProfile(
        sigma=tuple(sigma), wiener=wiener, diameter=diameter, regular_k=regular_k
    )


def check_connected(g: Graph) -> None:
    """Raise DisconnectedGraphError unless every vertex of ``g`` is
    reachable from vertex 0: one depth-first search, which stops as soon
    as every vertex is seen. It costs O(n + m) at most, where the engine
    would run as many levels as the widest component needs before it
    finds that a source never reaches the rest."""
    rows, n = g.adjacency, g.n
    seen = {0}
    stack = [0]
    while stack and len(seen) < n:
        new = set(rows[stack.pop()]).difference(seen)
        seen |= new
        stack += new
    if len(seen) < n:
        raise DisconnectedGraphError(_DISCONNECTED)


def transmission_profile(g: Graph) -> TransmissionProfile:
    """All-pairs distances of ``g`` reduced to per-vertex transmissions."""
    return profile_from_rows(g.adjacency)
