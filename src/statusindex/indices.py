"""Status and Zagreb connectivity indices and co-indices.

Status indices sum transmissions over edges; the co-indices take the
same sums over non-adjacent pairs, which ``coindex_identity`` derives
from the edge sums with the transmissions or the degrees as weights.
Everything is exact integer arithmetic: halved quantities are computed
by forming the even integer first, then dividing it exactly with ``exact_div``.
"""
from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Sequence

from .graph import (
    DisconnectedGraphError,
    Graph,
    TransmissionProfile,
    complement_rows,
    exact_div,
    profile_from_rows,
    transmission_profile,
)


class IndexBundle(NamedTuple):
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


class BoundsReport(NamedTuple):
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


class Diam2Formulas(NamedTuple):
    """The four diameter-<=2 co-index formulas.

    One pair expresses the status co-indices through the Zagreb indices
    (edge sums), the other through the Zagreb co-indices. On any graph
    of diameter <= 2 all four must equal the defining non-edge sums.
    """

    s1_co_from_zagreb: int
    s2_co_from_zagreb: int
    s1_co_from_zagreb_co: int
    s2_co_from_zagreb_co: int


def edge_sums(rows: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple[int, int]:
    """(sum of w_u + w_v, sum of w_u * w_v) over the edges uv of the
    graph whose vertex ``u`` has the neighbours ``rows[u]``.

    Summed row by row: the first sum is sum of deg(u) * w_u, and the
    second counts each edge from both ends, so it is halved. A row's
    weights are gathered by one ``itemgetter`` call on ``weights`` padded
    with a 0, whose index is passed twice so that a row of zero or one
    entries still gets a tuple.
    """
    padded = (*weights, 0)
    pad = len(weights)
    total = 0
    doubled = 0
    for w, row in zip(weights, rows):
        total += len(row) * w
        doubled += w * sum(itemgetter(pad, pad, *row)(padded))
    return total, exact_div(doubled, 2, "half the edge product sum counted from both ends")


def nonedge_sums(rows: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple[int, int]:
    """(sum of w_u + w_v, sum of w_u * w_v) over the non-adjacent pairs
    u < v of the graph whose vertex ``u`` has the neighbours ``rows[u]``.

    The defining sums, taken row by row on bitsets: ``free`` holds the
    non-neighbours v > u, and their weight sum is ``base * |free|`` plus
    ``2^j`` per vertex of ``free`` in plane j, the vertices whose
    ``w_v - base`` has bit j set (``base`` is the least weight). Costs
    O(m) steps for the masks, O(n) per plane to build it and one popcount
    per row and plane; equal weights give no planes. Uses nothing of the
    identities.
    """
    bit = [1 << v for v in range(len(rows))]
    base = min(weights, default=0)
    planes = [0] * (max(weights, default=0) - base).bit_length()
    for b, w in zip(bit, weights):
        w -= base
        for j in range(w.bit_length()):
            if w >> j & 1:
                planes[j] |= b
    above = (1 << len(rows)) - 1
    total = 0
    product = 0
    for b, w, row in zip(bit, weights, rows):
        above ^= b
        free = above & ~sum(map(bit.__getitem__, row))
        if free:
            count = free.bit_count()
            weight = base * count
            for j, plane in enumerate(planes):
                weight += (free & plane).bit_count() << j
            total += w * count + weight
            product += w * weight
    return total, product


def coindex_identity(n: int, total: int, squares: int, e1: int, e2: int) -> tuple[int, int]:
    """Non-edge sums from the edge sums e1, e2 of any weights w on n
    vertices, with sum w = ``total`` and sum w^2 = ``squares``: the sums
    over all C(n,2) pairs, (n-1)*total and (total^2 - squares)/2, less e1, e2."""
    half = exact_div(total * total - squares, 2, "half the pair-sum bracket")
    return (n - 1) * total - e1, half - e2


def status_indices(g: Graph, tp: TransmissionProfile) -> tuple[int, int]:
    """First and second status connectivity indices (edge sums)."""
    return edge_sums(g.adjacency, tp.sigma)


def status_coindices_direct(g: Graph, tp: TransmissionProfile) -> tuple[int, int]:
    """Status co-indices summed over non-adjacent pairs, by definition.

    This is the brute-force route; it doubles as the oracle for
    status_coindices_identity.
    """
    return nonedge_sums(g.adjacency, tp.sigma)


def status_coindices_identity(tp: TransmissionProfile, s1: int, s2: int) -> tuple[int, int]:
    """Status co-indices by the pair-sum identity, with sum sigma = 2W."""
    return coindex_identity(len(tp.sigma), 2 * tp.wiener, sum(s * s for s in tp.sigma), s1, s2)


def zagreb_indices(g: Graph) -> tuple[int, int]:
    """First and second Zagreb indices (degree sums over edges); with
    the degrees as weights, the first edge sum is sum of d^2."""
    return edge_sums(g.adjacency, g.degrees)


def zagreb_coindices_identity(n: int, m: int, m1: int, m2: int) -> tuple[int, int]:
    """Zagreb co-indices by the pair-sum identity on the degrees, whose
    sum is 2m and sum of squares M1 (Ashrafi, Doslic and Hamzeh, 2010)."""
    return coindex_identity(n, 2 * m, m1, m1, m2)


def zagreb_coindices(g: Graph) -> tuple[int, int]:
    """First and second Zagreb co-indices (degree sums over non-edges),
    by definition; the oracle for zagreb_coindices_identity."""
    return nonedge_sums(g.adjacency, g.degrees)


def compute_index_bundle(g: Graph, tp: TransmissionProfile | None = None) -> IndexBundle:
    """All eight indices plus the Wiener index, in O(n + m) after the
    profile: the status and Zagreb edge sums from one packed ``edge_sums``
    pass, then the co-indices from the pair-sum identities.
    """
    if tp is None:
        tp = transmission_profile(g)
    # Weights sigma_v 2^k + d_v give t = S1 2^k + M1 and p = S2 2^2k + X 2^k + M2,
    # X the sum over edges of sigma_u d_v + sigma_v d_u. On a connected graph
    # d <= sigma, so M1 <= 2m max d, M2 <= m max d^2 and X <= 2m max sigma max d
    # are each below 2^k: the fields never overlap. K1 has k = 0 and all 0.
    k = (2 * g.m * max(tp.sigma) * max(g.degrees)).bit_length()
    t, p = edge_sums(g.adjacency, [s << k | d for s, d in zip(tp.sigma, g.degrees)])
    mask = (1 << k) - 1
    s1, s2, m1, m2 = t >> k, p >> 2 * k, t & mask, p & mask
    s1_co, s2_co = status_coindices_identity(tp, s1, s2)
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
        + exact_div((4 * n - 5) * m1, 2, "(4n-5)*M1/2")
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
    rows = complement_rows(g)
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
