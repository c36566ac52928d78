"""Independent brute-force oracles for the test suite.

Everything here works from raw adjacency lists with Floyd-Warshall
distances and explicit pair enumeration, deliberately sharing no code
with the library's BFS / edge-iteration paths.
"""
from __future__ import annotations

import random
from itertools import chain, combinations, permutations, product

from statusindex import DEFAULT_MAX_VERTICES, Graph


def fw_distances(adjacency) -> list[list[int]]:
    """All-pairs distances by Floyd-Warshall; n marks 'unreachable'."""
    n = len(adjacency)
    inf = n  # any finite distance is at most n - 1
    dist = [[inf] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
        for v in adjacency[u]:
            dist[u][v] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def oracle_profile(adjacency) -> tuple[list[int], int, int]:
    """(sigma, wiener, diameter); raises if disconnected."""
    n = len(adjacency)
    dist = fw_distances(adjacency)
    if any(dist[u][v] >= n for u in range(n) for v in range(n)):
        raise ValueError("disconnected")
    sigma = [sum(row) for row in dist]
    total = sum(sigma)
    assert total % 2 == 0
    diameter = max(max(row) for row in dist) if n > 1 else 0
    return sigma, total // 2, diameter


def oracle_indices(adjacency) -> dict[str, int]:
    """All eight indices plus the Wiener index by pair enumeration."""
    n = len(adjacency)
    sigma, wiener, diameter = oracle_profile(adjacency)
    deg = [len(adjacency[u]) for u in range(n)]
    nbrs = [set(adjacency[u]) for u in range(n)]
    out = {
        "s1": 0, "s2": 0, "s1_co": 0, "s2_co": 0,
        "m1": 0, "m2": 0, "m1_co": 0, "m2_co": 0,
        "wiener": wiener, "diameter": diameter,
    }
    for u, v in combinations(range(n), 2):
        if v in nbrs[u]:
            out["s1"] += sigma[u] + sigma[v]
            out["s2"] += sigma[u] * sigma[v]
            out["m1"] += deg[u] + deg[v]
            out["m2"] += deg[u] * deg[v]
        else:
            out["s1_co"] += sigma[u] + sigma[v]
            out["s2_co"] += sigma[u] * sigma[v]
            out["m1_co"] += deg[u] + deg[v]
            out["m2_co"] += deg[u] * deg[v]
    return out


def oracle_edge_sums(adjacency, weights) -> tuple[int, int]:
    """(sum of w_u + w_v, sum of w_u * w_v) over the edges uv, u < v,
    by edge enumeration."""
    total = product = 0
    for u, row in enumerate(adjacency):
        for v in row:
            if u < v:
                total += weights[u] + weights[v]
                product += weights[u] * weights[v]
    return total, product


def oracle_nonedge_sums(adjacency, weights) -> tuple[int, int]:
    """(sum of w_u + w_v, sum of w_u * w_v) over the non-adjacent pairs,
    by pair enumeration."""
    nbrs = [set(row) for row in adjacency]
    total = product = 0
    for u, v in combinations(range(len(adjacency)), 2):
        if v not in nbrs[u]:
            total += weights[u] + weights[v]
            product += weights[u] * weights[v]
    return total, product


def complement(g: Graph) -> Graph:
    """The complement graph by pair enumeration: uv is an edge iff it is
    not one in ``g``. The result may be disconnected."""
    present = {(u, v) for u, row in enumerate(g.adjacency) for v in row}
    return Graph.from_edges(
        g.n, [pair for pair in combinations(range(g.n), 2) if pair not in present]
    )


def subset_graph_adjacency(p: int, k: int, disjoint: bool) -> tuple[tuple[int, ...], ...]:
    """Adjacency of the k-subsets of {0..p-1} in colexicographic order,
    by definition on frozensets: two distinct subsets are adjacent iff
    they are disjoint (Kneser graph) or iff they meet (intersection
    graph), as ``disjoint`` selects."""
    subsets = sorted(
        (frozenset(c) for c in combinations(range(p), k)),
        key=lambda s: sorted(s, reverse=True),
    )
    return tuple(
        tuple(
            v for v, b in enumerate(subsets)
            if v != u and a.isdisjoint(b) == disjoint
        )
        for u, a in enumerate(subsets)
    )


def canonical_form(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The least sorted edge tuple over the relabellings that keep each
    cell of vertices with one (degree, sorted neighbour degrees) in its
    place among the cells, taken in sorted invariant order. Isomorphic
    graphs have equal invariants, cell by cell, so equal forms."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    invariant = [(len(row), tuple(sorted(len(nbrs[v]) for v in row))) for row in nbrs]
    cells = [[v for v in range(n) if invariant[v] == key] for key in sorted(set(invariant))]

    def relabelled(order):
        position = {v: i for i, v in enumerate(chain.from_iterable(order))}
        return tuple(sorted(tuple(sorted((position[u], position[v]))) for u, v in edges))

    return min(map(relabelled, product(*map(permutations, cells))))


def graphs_up_to(max_n: int) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """Every graph on 1..max_n vertices up to isomorphism, as canonical
    edge tuples by order: each graph on n - 1 vertices is extended by a
    vertex n - 1 joined to each subset of the others that leaves it of
    least degree. Deleting a vertex of least degree from any graph on n
    vertices leaves one on n - 1, so no graph is missed."""
    graphs = {1: [()]}
    for n in range(2, max_n + 1):
        found = set()
        for edges in graphs[n - 1]:
            degree = [0] * (n - 1)
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            for size in range(n):
                for joined in combinations(range(n - 1), size):
                    if all(degree[v] + (v in joined) >= size for v in range(n - 1)):
                        found.add(canonical_form(n, edges + tuple((v, n - 1) for v in joined)))
        graphs[n] = sorted(found)
    return graphs


def is_connected(n: int, edges) -> bool:
    """Whether the graph on vertices 0..n-1 with these edges is connected,
    by growing the component of vertex 0 until no edge leaves it."""
    reached = {0}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return len(reached) == n


def reference_random_connected_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Seeded connected random graph.

    Samples each pair independently, then repeatedly adds a uniformly
    random missing edge between two different components until the graph
    is connected. Deterministic for a given seed.
    """
    # A verbatim copy of the generator that first defined the random
    # corpora; the tests hold the library's generator to its output.
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < edge_probability <= 1:
        raise ValueError(f"edge probability must be in (0, 1], got {edge_probability}")
    rng = random.Random(seed)
    present: set[tuple[int, int]] = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                present.add((u, v))

    def components() -> list[int]:
        comp = list(range(n))

        def find(x: int) -> int:
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for u, v in present:
            ru, rv = find(u), find(v)
            if ru != rv:
                comp[ru] = rv
        return [find(x) for x in range(n)]

    comp = components()
    while len(set(comp)) > 1:
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if comp[u] != comp[v] and (u, v) not in present
        ]
        present.add(rng.choice(candidates))
        comp = components()
    return Graph.from_edges(n, sorted(present))


def reference_parse(text: str) -> Graph:
    """Edge-list text to a Graph, the naive way: lines split by hand on
    ``\\n``, ``\\r\\n`` and ``\\r``, every edge kept in a list and a set
    of the edges seen. A rejected text raises ValueError with the prefix
    the library's message must start with: ``line N:`` for a line error,
    ``line N: duplicate edge`` for the first repeated edge when no line
    has another error, and the message for an unknown vertex count."""
    lines = []
    current = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\r" and text[i + 1:i + 2] == "\n":
            lines.append(current)
            current = ""
            i += 2
            continue
        if ch in "\r\n":
            lines.append(current)
            current = ""
        else:
            current += ch
        i += 1
    if current:
        lines.append(current)

    def is_ascii_digits(token: str) -> bool:
        return token != "" and all(c in "0123456789" for c in token)

    header = None
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()
    first_repeat = None
    for number, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "n" and header is None and not edges:
            if len(tokens) != 2 or not is_ascii_digits(tokens[1]):
                raise ValueError(f"line {number}:")
            header = int(tokens[1])
            if not 1 <= header <= DEFAULT_MAX_VERTICES:
                raise ValueError(f"line {number}:")
            continue
        if len(tokens) != 2 or not all(map(is_ascii_digits, tokens)):
            raise ValueError(f"line {number}:")
        u, v = int(tokens[0]), int(tokens[1])
        limit = DEFAULT_MAX_VERTICES if header is None else header
        if u >= limit or v >= limit or u == v:
            raise ValueError(f"line {number}:")
        if frozenset((u, v)) in seen and first_repeat is None:
            first_repeat = number
        seen.add(frozenset((u, v)))
        edges.append((u, v))
    if header is None and not edges:
        raise ValueError("no edges and no 'n <N>' header")
    if first_repeat is not None:
        raise ValueError(f"line {first_repeat}: duplicate edge")
    n = header if header is not None else 1 + max(max(e) for e in edges)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return Graph(n, tuple(tuple(sorted(row)) for row in neighbours))


def reference_format_edge_list(g: Graph) -> str:
    """Canonical edge-list text written one f-string per edge from
    ``Graph.edges()``: the writer the library first had, which its
    row-at-a-time writer must equal byte for byte."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
