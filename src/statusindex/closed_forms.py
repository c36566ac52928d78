"""Closed-form index expressions for the supported families.

Every quantity is evaluated in two modes. ``corrected`` values follow
from transmission regularity and the co-index identities, so they are
consistent with brute-force computation by construction. ``as_printed``
values execute the published closed forms verbatim; where the two
disagree the report carries an erratum flag. Rational prefactors are
handled by multiplying numerators first and asserting divisibility;
division never truncates silently.
"""
from __future__ import annotations

from math import comb
from typing import NamedTuple

from .families import FamilySpec
from .indices import transmission_regular_indices

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


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError(
            f"{what} is not an integer: {numerator}/{denominator}"
        )
    return quotient


def _corrected_report(
    family: FamilySpec, n: int, m: int, degree: int, k: int,
    printed: dict[str, int],
) -> ClosedFormReport:
    s1, s2, s1_co, s2_co = transmission_regular_indices(n, m, k)
    wiener = _exact_div(n * k, 2, "n*k/2 (Wiener index)")
    corrected = {"s1": s1, "s2": s2, "s1_co": s1_co, "s2_co": s2_co}
    # the corrected values must satisfy the co-index identities exactly
    bracket = (n * k) ** 2 - n * k * k
    if s1_co != 2 * (n - 1) * wiener - s1 or bracket % 2 or s2_co != bracket // 2 - s2:
        raise ArithmeticError(f"{family.label()}: corrected values break the co-index identities")
    return ClosedFormReport(
        family=family, n=n, m=m, degree=degree, sigma=k, wiener=wiener,
        indices={
            name: FormulaValue(corrected=corrected[name], as_printed=printed[name])
            for name in INDEX_NAMES
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
    k = n + disjoint - 1
    printed = {
        "s1": n * (n - disjoint - 1) * (n + disjoint - 1),
        "s2": _exact_div(
            n * (n - disjoint - 1) * (n + disjoint - 1) ** 2, 2,
            "intersection s2 prefactor",
        ),
        "s1_co": disjoint * n * (n + disjoint - 1),
        "s2_co": (comb(n, 2) - _exact_div(n * (n - disjoint - 1), 2, "edge count"))
        * (n + disjoint - 1) ** 2,
    }
    m = _exact_div(n * degree, 2, "intersection edge count")
    return _corrected_report(spec, n, m, degree, k, printed)


def hypercube_closed_forms(n: int) -> ClosedFormReport:
    """Indices of the n-dimensional hypercube (2^n vertices).

    The published co-index expressions disagree with the co-index
    identities (s1_co is even negative at n = 2); they are evaluated
    verbatim and flagged.
    """
    spec = FamilySpec.hypercube(n)
    size = 2 ** n
    m = n * 2 ** (n - 1)
    k = n * 2 ** (n - 1)
    printed = {
        "s1": n * n * 2 ** (2 * n - 1),
        "s2": n ** 3 * 2 ** (3 * n - 3),
        "s1_co": 2 * n * n * 2 ** (n - 1) * (2 * n - 5),
        "s2_co": n * n * 2 ** (2 * n - 2) * (n * (2 * n - 1) - 1),
    }
    return _corrected_report(spec, size, m, n, k, printed)


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
    m = _exact_div(n * degree, 2, "kneser edge count")
    sigma = sum(comb(k, s) * comb(p - k, k - s) * kneser_distance(p, k, s) for s in range(k))
    wiener = _exact_div(n * sigma, 2, "kneser Wiener index C(p,k)*sigma/2")
    s2 = degree * _exact_div(2 * wiener * wiener, n, "kneser 2W^2/C(p,k)")
    printed = {
        "s1": 2 * wiener * degree,
        "s2": s2,
        "s1_co": 2 * wiener * (n - degree - 1),
        # published middle term subtracts W; the identity needs 2W^2/C(p,k)
        "s2_co": 2 * wiener * wiener - wiener - s2,
    }
    return _corrected_report(spec, n, m, degree, sigma, printed)


def nanotorus_closed_forms(p: int, q: int) -> ClosedFormReport:
    """Indices of the achiral polyhex (hexagonal) torus on p*q vertices.

    The per-vertex transmission, and with it every index, branches on
    q < p versus q >= p.
    """
    spec = FamilySpec.nanotorus(p, q)
    n = p * q
    m = _exact_div(3 * p * q, 2, "nanotorus edge count")
    if q < p:
        poly = 6 * p * p + q * q - 4
        sigma = _exact_div(q * poly, 12, "nanotorus transmission")
        wiener = _exact_div(p * q * q * poly, 24, "nanotorus Wiener index")
        printed = {
            "s1": _exact_div(p * q * q * poly, 4, "nanotorus s1"),
            "s2": _exact_div(p * q ** 3 * poly * poly, 96, "nanotorus s2"),
            "s1_co": _exact_div(p * q * q * (p * q - 4) * poly, 12, "nanotorus s1_co"),
            "s2_co": _exact_div(
                p * q ** 3 * (p * q - 4) * poly * poly, 288, "nanotorus s2_co"
            ),
        }
    else:
        poly = 3 * q * q + 3 * p * q + p * p - 4
        sigma = _exact_div(p * poly, 12, "nanotorus transmission")
        wiener = _exact_div(p * p * q * poly, 24, "nanotorus Wiener index")
        printed = {
            "s1": _exact_div(p * p * q * poly, 4, "nanotorus s1"),
            "s2": _exact_div(p ** 3 * q * poly * poly, 96, "nanotorus s2"),
            "s1_co": _exact_div(p * p * q * (p * q - 4) * poly, 12, "nanotorus s1_co"),
            "s2_co": _exact_div(
                p ** 3 * q * (p * q - 4) * poly * poly, 288, "nanotorus s2_co"
            ),
        }
    report = _corrected_report(spec, n, m, 3, sigma, printed)
    if report.wiener != wiener:
        raise ArithmeticError(f"{spec.label()}: Wiener index {report.wiener} != {wiener}")
    return report


def closed_forms_for(spec: FamilySpec) -> ClosedFormReport:
    """Dispatch to the family's closed forms."""
    if spec.kind == "hypercube":
        return hypercube_closed_forms(spec.params[0])
    if spec.kind == "intersection":
        return intersection_closed_forms(*spec.params)
    if spec.kind == "nanotorus":
        return nanotorus_closed_forms(*spec.params)
    if spec.kind == "kneser":
        return kneser_closed_forms(*spec.params)
    raise ValueError(f"no closed forms for family {spec.kind!r}")
