"""Closed-form index expressions for the supported families.

Every quantity is evaluated in two modes. ``corrected`` values follow
from transmission regularity and the co-index identities, so they are
consistent with brute-force computation by construction. ``as_printed``
values evaluate the published closed forms; where the two disagree the
report carries an erratum flag. The paper's two nanotorus branches
(q < p and q >= p) share every factor but one polynomial, so they are
written once. Rational prefactors are handled by multiplying numerators
first and dividing with ``graph.exact_div``, which raises
ArithmeticError on a remainder; division never truncates silently.
"""
from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .families import FamilySpec
from .graph import exact_div
from .indices import coindex_identity, transmission_regular_indices

INDEX_NAMES = ("s1", "s2", "s1_co", "s2_co")


class FormulaValue(NamedTuple):
    """One index in both evaluation modes."""

    corrected: int
    as_printed: int

    @property
    def erratum(self) -> bool:
        return self.as_printed != self.corrected


class ClosedFormReport(NamedTuple):
    """Closed-form structure constants and index values for one family
    member. ``sigma`` and ``wiener`` have no corrected/printed split;
    their published expressions agree with the regularity identities."""

    family: FamilySpec
    n: int
    m: int
    degree: int
    sigma: int
    wiener: int
    indices: dict[str, FormulaValue]

    def errata(self) -> tuple[str, ...]:
        return tuple(name for name in INDEX_NAMES if self.indices[name].erratum)


def _corrected_report(
    family: FamilySpec, n: int, degree: int, k: int, printed: dict[str, int],
) -> ClosedFormReport:
    # every family here is regular, so it has n*degree/2 edges
    m = exact_div(n * degree, 2, "edge count n*degree/2")
    wiener = exact_div(n * k, 2, "n*k/2 (Wiener index)")
    # every sigma is k: edge sums 2mk and mk^2, sum sigma nk, sum sigma^2 nk^2
    s1, s2 = 2 * m * k, m * k * k
    values = (s1, s2, *coindex_identity(n, n * k, n * k * k, s1, s2))
    # the (C(n,2) - m)k factoring of transmission_regular_indices is independent algebra
    if values != transmission_regular_indices(n, m, k):
        raise ArithmeticError(f"{family.label()}: corrected values break the co-index identities")
    return ClosedFormReport(
        family=family, n=n, m=m, degree=degree, sigma=k, wiener=wiener,
        indices={
            name: FormulaValue(corrected=value, as_printed=printed[name])
            for name, value in zip(INDEX_NAMES, values)
        },
    )


def intersection_closed_forms(p: int, t: int) -> ClosedFormReport:
    """Indices of the t-subset intersection graph on a p-set: two subsets
    are at distance 2 when disjoint. For p < 2t no two are, C(p-t, t) = 0,
    and the same expressions give the complete graph.
    """
    spec = FamilySpec.intersection(p, t)
    n = comb(p, t)
    disjoint = comb(p - t, t)
    degree = n - disjoint - 1
    m = exact_div(n * degree, 2, "intersection edge count n*degree/2")
    k = n + disjoint - 1
    printed = {
        "s1": n * (n - disjoint - 1) * (n + disjoint - 1),
        "s2": exact_div(
            n * (n - disjoint - 1) * (n + disjoint - 1) ** 2, 2,
            "intersection s2 prefactor",
        ),
        "s1_co": disjoint * n * (n + disjoint - 1),
        "s2_co": (comb(n, 2) - m) * (n + disjoint - 1) ** 2,
    }
    return _corrected_report(spec, n, degree, k, printed)


def hypercube_closed_forms(n: int) -> ClosedFormReport:
    """Indices of the n-dimensional hypercube (2^n vertices).

    The published co-index expressions disagree with the co-index
    identities (s1_co is even negative at n = 2); they are evaluated
    verbatim and flagged.
    """
    spec = FamilySpec.hypercube(n)
    size = 2 ** n
    k = n * 2 ** (n - 1)
    printed = {
        "s1": n * n * 2 ** (2 * n - 1),
        "s2": n ** 3 * 2 ** (3 * n - 3),
        "s1_co": 2 * n * n * 2 ** (n - 1) * (2 * n - 5),
        "s2_co": n * n * 2 ** (2 * n - 2) * (n * (2 * n - 1) - 1),
    }
    return _corrected_report(spec, size, n, k, printed)


def kneser_distance(p: int, k: int, s: int) -> int:
    """Distance between two k-subsets of a p-set that share s elements
    (Valencia-Pabon and Vera, "On the diameter of Kneser graphs",
    Discrete Math. 305, 2005). Of the valid specs, p - 2k is below 1 only
    for K2 = kneser(2, 1); a gap of 1 gives its distance, 1."""
    gap = max(p - 2 * k, 1)
    return min(2 * -(-(k - s) // gap), 2 * -(-s // gap) + 1)


def kneser_closed_forms(p: int, k: int) -> ClosedFormReport:
    """Indices of the Kneser graph. The transmission sums the subset
    distance over the C(k,s) * C(p-k,k-s) subsets that share s elements
    with a given one; W = C(p,k) * sigma / 2 feeds the published
    expressions, which are written in W."""
    spec = FamilySpec.kneser(p, k)
    n = comb(p, k)
    degree = comb(p - k, k)
    sigma = sum(comb(k, s) * comb(p - k, k - s) * kneser_distance(p, k, s) for s in range(k))
    wiener = exact_div(n * sigma, 2, "kneser Wiener index C(p,k)*sigma/2")
    s2 = degree * exact_div(2 * wiener * wiener, n, "kneser 2W^2/C(p,k)")
    printed = {
        "s1": 2 * wiener * degree,
        "s2": s2,
        "s1_co": 2 * wiener * (n - degree - 1),
        # published middle term subtracts W; the identity needs 2W^2/C(p,k)
        "s2_co": 2 * wiener * wiener - wiener - s2,
    }
    return _corrected_report(spec, n, degree, sigma, printed)


def nanotorus_closed_forms(p: int, q: int) -> ClosedFormReport:
    """Indices of the achiral polyhex (hexagonal) torus on n = p*q vertices.

    The published per-vertex transmission branches on q < p versus
    q >= p, but only through ``poly``: with a = min(p, q) both branches
    give sigma = a*poly/12, and every other expression is the same in
    n, a and poly.
    """
    spec = FamilySpec.nanotorus(p, q)
    n = p * q
    a = min(p, q)
    poly = 6 * p * p + q * q - 4 if q < p else 3 * q * q + 3 * p * q + p * p - 4
    sigma = exact_div(a * poly, 12, "nanotorus transmission")
    printed = {
        "s1": exact_div(n * a * poly, 4, "nanotorus s1"),
        "s2": exact_div(n * a * a * poly * poly, 96, "nanotorus s2"),
        "s1_co": exact_div(n * a * (n - 4) * poly, 12, "nanotorus s1_co"),
        "s2_co": exact_div(n * a * a * (n - 4) * poly * poly, 288, "nanotorus s2_co"),
    }
    return _corrected_report(spec, n, 3, sigma, printed)


#: kind -> the evaluator of its closed forms, called with the spec's parameters.
CLOSED_FORMS: dict[str, Callable[..., ClosedFormReport]] = {
    "hypercube": hypercube_closed_forms,
    "kneser": kneser_closed_forms,
    "intersection": intersection_closed_forms,
    "nanotorus": nanotorus_closed_forms,
}


def closed_forms_for(spec: FamilySpec) -> ClosedFormReport:
    """Dispatch to the family's closed forms."""
    if spec.kind not in CLOSED_FORMS:
        raise ValueError(f"no closed forms for family {spec.kind!r}")
    return CLOSED_FORMS[spec.kind](*spec.params)
