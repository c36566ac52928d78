"""Status and Zagreb connectivity indices and co-indices.

Status indices sum transmissions over edges; the co-indices take the
same sums over non-adjacent pairs. Everything is exact integer
arithmetic: halved quantities are computed by forming the even integer
first, checking evenness, then halving.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import (
    DisconnectedGraphError,
    Graph,
    TransmissionProfile,
    profile_from_rows,
    transmission_profile,
)


@dataclass(frozen=True)
class IndexBundle:
    """The eight edge/non-edge indices plus the Wiener index."""

    s1: int
    s2: int
    s1_co: int
    s2_co: int
    m1: int
    m2: int
    m1_co: int
    m2_co: int
    wiener: int


@dataclass(frozen=True)
class BoundsReport:
    """Lower bounds for the status indices of a connected complement.

    ``equality`` records whether both bounds are attained, which happens
    exactly when the complement has diameter at most 2.
    """

    s1_lower: int
    s2_lower: int
    s1_actual: int
    s2_actual: int
    equality: bool
    complement_diameter: int


@dataclass(frozen=True)
class Diam2Formulas:
    """The four diameter-<=2 co-index formulas.

    One pair expresses the status co-indices through the Zagreb indices
    (edge sums), the other through the Zagreb co-indices. On any graph
    of diameter <= 2 all four must equal the defining non-edge sums.
    """

    s1_co_from_zagreb: int
    s2_co_from_zagreb: int
    s1_co_from_zagreb_co: int
    s2_co_from_zagreb_co: int


@dataclass(frozen=True)
class OrbitPartition:
    """A partition of the vertex set into blocks of equivalent vertices.

    Valid blocks have constant degree and constant transmission; that
    necessary condition is all the orbit index formulas consume, so it
    is all that gets validated.
    """

    blocks: tuple[frozenset[int], ...]


def _half_even(value: int, what: str) -> int:
    if value % 2:
        raise ArithmeticError(f"{what} must be even, got {value}")
    return value // 2


def edge_sums(rows: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple[int, int]:
    """(sum of w_u + w_v, sum of w_u * w_v) over the edges uv of the
    graph whose vertex ``u`` has the neighbours ``rows[u]``.

    Summed row by row: the first sum is sum of deg(u) * w_u, and the
    second counts each edge from both ends, so it is halved.
    """
    weight = weights.__getitem__
    total = 0
    doubled = 0
    for w, row in zip(weights, rows):
        total += len(row) * w
        doubled += w * sum(map(weight, row))
    return total, _half_even(doubled, "edge product sum counted from both ends")


def status_indices(g: Graph, tp: TransmissionProfile) -> tuple[int, int]:
    """First and second status connectivity indices (edge sums)."""
    return edge_sums(g.adjacency, tp.sigma)


def status_coindices_direct(g: Graph, tp: TransmissionProfile) -> tuple[int, int]:
    """Status co-indices summed over non-adjacent pairs, by definition.

    This is the brute-force route; it doubles as the oracle for
    status_coindices_identity.
    """
    sigma = tp.sigma
    s1_co = 0
    s2_co = 0
    for u, v in g.non_edges():
        s1_co += sigma[u] + sigma[v]
        s2_co += sigma[u] * sigma[v]
    return s1_co, s2_co


def status_coindices_identity(tp: TransmissionProfile, s1: int, s2: int) -> tuple[int, int]:
    """Status co-indices via the pair-sum identities.

    s1_co = 2(n-1)W - s1, and s2_co subtracts s2 from half of the even
    bracket (sum sigma)^2 - sum sigma^2.
    """
    n = len(tp.sigma)
    s1_co = 2 * (n - 1) * tp.wiener - s1
    total = sum(tp.sigma)
    sum_sq = sum(s * s for s in tp.sigma)
    bracket = total * total - sum_sq
    s2_co = _half_even(bracket, "transmission pair-sum bracket") - s2
    return s1_co, s2_co


def zagreb_indices(g: Graph) -> tuple[int, int]:
    """First and second Zagreb indices (degree sums over edges); with
    the degrees as weights, the first edge sum is sum of d^2."""
    return edge_sums(g.adjacency, g.degrees)


def zagreb_coindices_identity(n: int, m: int, m1: int, m2: int) -> tuple[int, int]:
    """Zagreb co-indices from the Zagreb indices (Ashrafi, Doslic and
    Hamzeh, 2010): m1_co = 2m(n-1) - M1 and m2_co = 2m^2 - M2 - M1/2."""
    return 2 * m * (n - 1) - m1, 2 * m * m - m2 - _half_even(m1, "M1")


def zagreb_coindices(g: Graph) -> tuple[int, int]:
    """First and second Zagreb co-indices (degree sums over non-edges),
    by definition; the oracle for zagreb_coindices_identity."""
    deg = g.degrees
    m1_co = 0
    m2_co = 0
    for u, v in g.non_edges():
        m1_co += deg[u] + deg[v]
        m2_co += deg[u] * deg[v]
    return m1_co, m2_co


def compute_index_bundle(g: Graph, tp: TransmissionProfile | None = None) -> IndexBundle:
    """All eight indices plus the Wiener index, in O(n + m) after the
    profile: edge sums, then the co-indices from the pair-sum identities.
    """
    if tp is None:
        tp = transmission_profile(g)
    s1, s2 = status_indices(g, tp)
    s1_co, s2_co = status_coindices_identity(tp, s1, s2)
    m1, m2 = zagreb_indices(g)
    m1_co, m2_co = zagreb_coindices_identity(g.n, g.m, m1, m2)
    return IndexBundle(
        s1=s1, s2=s2, s1_co=s1_co, s2_co=s2_co,
        m1=m1, m2=m2, m1_co=m1_co, m2_co=m2_co,
        wiener=tp.wiener,
    )


def diam2_coindex_formulas(g: Graph, tp: TransmissionProfile | None = None) -> Diam2Formulas:
    """Evaluate the four diameter-<=2 co-index formulas.

    Requires diameter(g) <= 2, where every transmission collapses to
    2n - 2 - degree.
    """
    if tp is None:
        tp = transmission_profile(g)
    if tp.diameter > 2:
        raise ValueError(f"diameter {tp.diameter} > 2: formulas do not apply")
    n, m = g.n, g.m
    m1, m2 = zagreb_indices(g)
    m1_co, m2_co = zagreb_coindices(g)
    s1_z = 2 * n * (n - 1) ** 2 - 6 * m * (n - 1) + m1
    # (2n - 5/2) * m1 as an exact half of the even integer (4n-5)*m1
    s2_z = (
        (n - 1) ** 2 * (2 * n * (n - 1) - 8 * m)
        + 2 * m * m
        + _half_even((4 * n - 5) * m1, "(4n-5)*M1")
        - m2
    )
    s1_zc = 2 * (n - 1) * (n * (n - 1) - 2 * m) - m1_co
    s2_zc = 2 * (n - 1) ** 2 * (n * (n - 1) - 2 * m) - 2 * (n - 1) * m1_co + m2_co
    return Diam2Formulas(
        s1_co_from_zagreb=s1_z,
        s2_co_from_zagreb=s2_z,
        s1_co_from_zagreb_co=s1_zc,
        s2_co_from_zagreb_co=s2_zc,
    )


def complement_bounds(g: Graph) -> BoundsReport:
    """Lower bounds on S1/S2 of the complement, from g's own data.

    The bounds use only n, m and the Zagreb co-indices of ``g``; the
    actual values come from the complement's adjacency rows, which must
    form a connected graph.
    """
    n, m = g.n, g.m
    nbrs = g.neighbor_sets
    rows = [[v for v in range(n) if v != u and v not in nbrs[u]] for u in range(n)]
    try:
        tp_bar = profile_from_rows(rows)
    except DisconnectedGraphError as exc:
        raise DisconnectedGraphError(
            "complement is disconnected; bounds need a connected complement"
        ) from exc
    m1_co, m2_co = zagreb_coindices_identity(n, m, *zagreb_indices(g))
    non_edges = n * (n - 1) // 2 - m
    s1_lower = (n - 1) * (n * (n - 1) - 2 * m) + m1_co
    s2_lower = (n - 1) ** 2 * non_edges + (n - 1) * m1_co + m2_co
    s1_actual, s2_actual = edge_sums(rows, tp_bar.sigma)
    return BoundsReport(
        s1_lower=s1_lower,
        s2_lower=s2_lower,
        s1_actual=s1_actual,
        s2_actual=s2_actual,
        equality=(s1_actual == s1_lower and s2_actual == s2_lower),
        complement_diameter=tp_bar.diameter,
    )


def transmission_regular_indices(n: int, m: int, k: int) -> tuple[int, int, int, int]:
    """(s1, s2, s1_co, s2_co) of a k-transmission-regular graph.

    Pure arithmetic in (n, m, k): s1 = 2mk, s2 = mk^2, and the
    co-indices replace m by the number of non-adjacent pairs.
    """
    if k <= 0:
        raise ValueError(f"transmission k must be positive, got {k}")
    pairs = n * (n - 1) // 2
    if not 0 < m <= pairs:
        raise ValueError(f"edge count {m} impossible for n={n}")
    s1 = 2 * m * k
    s2 = m * k * k
    s1_co = 2 * pairs * k - 2 * m * k
    s2_co = (pairs - m) * k * k
    return s1, s2, s1_co, s2_co


def validate_orbit_partition(g: Graph, tp: TransmissionProfile, op: OrbitPartition) -> None:
    """Check that blocks partition V and are constant in degree and
    transmission; raises ValueError otherwise."""
    covered: set[int] = set()
    for block in op.blocks:
        if not block:
            raise ValueError("empty orbit block")
        for u in block:
            if not 0 <= u < g.n:
                raise ValueError(f"vertex {u} out of range in orbit block")
            if u in covered:
                raise ValueError(f"vertex {u} appears in more than one block")
        covered.update(block)
        degs = {g.degrees[u] for u in block}
        sigs = {tp.sigma[u] for u in block}
        if len(degs) > 1 or len(sigs) > 1:
            raise ValueError(
                f"block {sorted(block)} mixes degrees {sorted(degs)} "
                f"or transmissions {sorted(sigs)}"
            )
    if len(covered) != g.n:
        raise ValueError("orbit blocks do not cover every vertex")


def orbit_indices(
    g: Graph, tp: TransmissionProfile, op: OrbitPartition
) -> tuple[int, int]:
    """(s1, s1_co) from per-block sizes, degrees and transmissions.

    s1 = sum |V_i| d_i k_i and s1_co = sum |V_i| k_i (n - 1 - d_i),
    the integer rearrangement of the (n-1)-weighted orbit sum.
    """
    validate_orbit_partition(g, tp, op)
    n = g.n
    s1 = 0
    s1_co = 0
    for block in op.blocks:
        u = next(iter(block))
        size = len(block)
        d = g.degrees[u]
        k = tp.sigma[u]
        s1 += size * d * k
        s1_co += size * k * (n - 1 - d)
    return s1, s1_co
