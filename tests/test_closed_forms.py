from __future__ import annotations

import subprocess
import sys
from itertools import combinations
from math import comb

import pytest

from statusindex import (
    FamilyError,
    FamilySpec,
    closed_forms_for,
    compute_index_bundle,
    generate,
    hypercube_closed_forms,
    intersection_closed_forms,
    kneser_closed_forms,
    nanotorus_closed_forms,
    status_coindices_direct,
    transmission_profile,
)
from statusindex.closed_forms import kneser_distance
from statusindex.families import edge_count

from oracles import fw_distances, oracle_indices, oracle_profile, subset_graph_adjacency


def corrected(report):
    return {name: value.corrected for name, value in report.indices.items()}


def printed(report):
    return {name: value.as_printed for name, value in report.indices.items()}


class TestIntersectionClosedForms:
    def test_p4_t2_by_substitution(self):
        report = intersection_closed_forms(4, 2)
        assert (report.n, report.m, report.degree, report.sigma) == (6, 12, 4, 6)
        assert corrected(report) == {"s1": 144, "s2": 432, "s1_co": 36, "s2_co": 108}
        assert report.errata() == ()

    def test_p3_t2_complete_branch(self):
        report = intersection_closed_forms(3, 2)
        assert corrected(report)["s1"] == 3 * (3 - 1) ** 2 == 12
        assert corrected(report)["s1_co"] == 0
        assert corrected(report)["s2_co"] == 0
        # for p < 2t no two t-subsets are disjoint, C(p-t, t) = 0, and the
        # general expressions give the complete graph
        specs = [(p, t) for p in range(3, 201) for t in range(2, p)
                 if p < 2 * t and comb(p, t) <= 200]
        assert len(specs) == 220
        for p, t in specs:
            report = intersection_closed_forms(p, t)
            g = generate(FamilySpec.intersection(p, t))
            tp = transmission_profile(g)
            bundle = compute_index_bundle(g, tp)
            expected = {"s1": bundle.s1, "s2": bundle.s2, "s1_co": bundle.s1_co,
                        "s2_co": bundle.s2_co}
            assert (report.degree, report.sigma) == (report.n - 1, report.n - 1), (p, t)
            assert corrected(report) == printed(report) == expected, (p, t)
            assert status_coindices_direct(g, tp) == (0, 0), (p, t)

    def test_p6_t2(self):
        report = intersection_closed_forms(6, 2)
        assert (report.n, report.degree, report.sigma) == (15, 8, 20)
        assert corrected(report)["s1"] == 15 * 8 * 20 == 2400

    def test_printed_forms_agree_everywhere(self):
        for p, t in ((3, 2), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (5, 3), (4, 3)):
            report = intersection_closed_forms(p, t)
            assert printed(report) == corrected(report), (p, t)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            intersection_closed_forms(4, 1)


class TestHypercubeClosedForms:
    def test_n2_corrected_equals_four_cycle(self):
        report = hypercube_closed_forms(2)
        assert corrected(report) == {"s1": 32, "s2": 64, "s1_co": 16, "s2_co": 32}

    def test_n2_printed_coindices_are_errata(self):
        report = hypercube_closed_forms(2)
        assert printed(report)["s1"] == 32
        assert printed(report)["s2"] == 64
        assert printed(report)["s1_co"] == -16
        assert printed(report)["s2_co"] == 80
        assert report.errata() == ("s1_co", "s2_co")

    def test_n1_is_a_single_edge(self):
        report = hypercube_closed_forms(1)
        assert corrected(report) == {"s1": 2, "s2": 1, "s1_co": 0, "s2_co": 0}
        # the printed s2_co expression happens to agree at n=1
        assert printed(report)["s1_co"] == -6
        assert report.errata() == ("s1_co",)

    def test_structure_constants(self):
        for n in range(1, 11):
            report = hypercube_closed_forms(n)
            assert report.n == 2 ** n
            assert report.m == report.sigma == n * 2 ** (n - 1)
            assert report.degree == n


class TestKneserClosedForms:
    def test_petersen_by_substitution(self):
        report = kneser_closed_forms(5, 2)
        assert (report.n, report.m, report.degree, report.sigma) == (10, 15, 3, 15)
        assert corrected(report) == {"s1": 450, "s2": 3375, "s1_co": 900, "s2_co": 6750}

    def test_petersen_printed_s2_co_erratum(self):
        report = kneser_closed_forms(5, 2)
        assert printed(report)["s2_co"] == 2 * 75 * 75 - 75 - 3375 == 7800
        assert report.errata() == ("s2_co",)

    def test_complete_graph_degeneration(self):
        # kneser(n, 1) is the complete graph; s1 = n(n-1)^2 and co-indices vanish
        for n in (2, 3, 4, 6):
            report = kneser_closed_forms(n, 1)
            assert corrected(report)["s1"] == n * (n - 1) ** 2
            assert corrected(report)["s1_co"] == 0
            assert corrected(report)["s2_co"] == 0

    def test_single_vertex_has_no_closed_forms(self):
        # kneser(1, 1) is K1: its transmission is 0, so it is not a valid spec
        with pytest.raises(FamilyError, match=r"^kneser\(p=1, k=1\) is K1, which has no "
                           r"closed forms; use path\(n=1\)$"):
            kneser_closed_forms(1, 1)


class TestNanotorusClosedForms:
    def test_q_below_p_branch(self):
        report = nanotorus_closed_forms(4, 2)
        assert (report.n, report.m, report.degree) == (8, 12, 3)
        assert report.sigma == 16
        assert report.wiener == 64
        assert corrected(report) == {"s1": 384, "s2": 3072, "s1_co": 512, "s2_co": 4096}

    def test_q_at_least_p_branch(self):
        report = nanotorus_closed_forms(2, 4)
        assert report.sigma == 12
        assert report.wiener == 48
        assert corrected(report)["s1"] == 288

    def test_printed_forms_agree_everywhere(self):
        for p, q in ((4, 2), (2, 4), (4, 4), (6, 4), (4, 6), (8, 6), (10, 8)):
            report = nanotorus_closed_forms(p, q)
            assert printed(report) == corrected(report), (p, q)

    def test_s1_co_cross_check(self):
        # (n(n-1) - 2m) k with n=8, m=12, k=16
        report = nanotorus_closed_forms(4, 2)
        assert corrected(report)["s1_co"] == (8 * 7 - 24) * 16 == 512


#: test_broken_identity_raises as a script: hypercube(3) with
#: transmission_regular_indices patched to return s1_co off by one.
BROKEN_IDENTITY = """
from statusindex import closed_forms

real = closed_forms.transmission_regular_indices

def off_by_one(n, m, k):
    s1, s2, s1_co, s2_co = real(n, m, k)
    return s1, s2, s1_co + 1, s2_co

closed_forms.transmission_regular_indices = off_by_one
closed_forms.hypercube_closed_forms(3)
"""


class TestInvariantChecks:
    """The internal consistency checks raise explicitly, so they hold
    under ``python -O`` too."""

    def test_broken_identity_raises(self, monkeypatch):
        from statusindex import closed_forms

        real = closed_forms.transmission_regular_indices

        def off_by_one(n, m, k):
            s1, s2, s1_co, s2_co = real(n, m, k)
            return s1, s2, s1_co + 1, s2_co

        monkeypatch.setattr(closed_forms, "transmission_regular_indices", off_by_one)
        with pytest.raises(ArithmeticError, match="co-index identities"):
            hypercube_closed_forms(3)

    def test_broken_identity_raises_under_optimize(self):
        result = subprocess.run(
            [sys.executable, "-O", "-c", BROKEN_IDENTITY], capture_output=True, text=True,
        )
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == (
            "ArithmeticError: hypercube(n=3): corrected values break the co-index identities"
        )


class TestDispatcher:
    def test_no_closed_forms_for_basic_families(self):
        with pytest.raises(ValueError, match="no closed forms"):
            closed_forms_for(FamilySpec.path(4))

    def test_dispatch_matches_direct_calls(self):
        assert closed_forms_for(FamilySpec.hypercube(3)) == hypercube_closed_forms(3)
        assert closed_forms_for(FamilySpec.nanotorus(4, 4)) == nanotorus_closed_forms(4, 4)
        assert closed_forms_for(FamilySpec.kneser(7, 3)) == kneser_closed_forms(7, 3)


# the independent oracle re-derives the corrected values for every spec
# small enough for Floyd-Warshall
ORACLE_SPECS = (
    [FamilySpec.hypercube(n) for n in range(1, 6)]
    + [FamilySpec.kneser(p, k) for p, k in ((5, 2), (6, 2), (7, 2), (7, 3), (9, 4))]
    + [
        FamilySpec.intersection(p, t)
        for p, t in ((3, 2), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3))
    ]
    + [FamilySpec.nanotorus(p, q) for p, q in ((2, 4), (4, 4), (6, 4), (4, 6), (8, 6))]
)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.label())
def test_corrected_closed_forms_match_oracle(spec):
    g = generate(spec)
    sigma, wiener, _ = oracle_profile(g.adjacency)
    expected = oracle_indices(g.adjacency)
    report = closed_forms_for(spec)
    assert report.n == g.n
    assert report.m == g.m
    assert set(g.degrees) == {report.degree}
    assert set(sigma) == {report.sigma}
    assert report.wiener == wiener
    for name in ("s1", "s2", "s1_co", "s2_co"):
        assert report.indices[name].corrected == expected[name], (spec.label(), name)


def test_corrected_closed_forms_satisfy_identities():
    # the corrected co-indices come from the pair-sum identity; on a
    # k-transmission-regular graph each of the C(n,2) - m non-adjacent
    # pairs adds 2k and k^2, checked here over a wider sweep with large values
    for spec in ORACLE_SPECS + [FamilySpec.hypercube(n) for n in range(6, 16)]:
        report = closed_forms_for(spec)
        non_edges, k = comb(report.n, 2) - report.m, report.sigma
        assert report.indices["s1_co"].corrected == non_edges * 2 * k, spec.label()
        assert report.indices["s2_co"].corrected == non_edges * k * k, spec.label()


def test_subset_family_edge_counts_match_the_family_table():
    # the closed forms halve n * degree; the family table writes each
    # family's count its own way (binomial products, a shift, 3pq/2), so
    # the two agree only if both are right, past the caps too
    specs = [FamilySpec.hypercube(n) for n in range(1, 60)]
    specs += [FamilySpec.nanotorus(p, q) for p in range(2, 60, 2) for q in range(2, 60, 2)
              if (p, q) != (2, 2)]
    specs += [FamilySpec.intersection(p, t) for p in range(3, 60) for t in range(2, p)]
    specs += [FamilySpec.kneser(p, 1) for p in range(2, 60)]
    specs += [FamilySpec.kneser(p, k) for p in range(5, 60) for k in range(2, (p + 1) // 2)]
    for spec in specs:
        assert closed_forms_for(spec).m == edge_count(spec), spec.label()


# every connected Kneser graph small enough for Floyd-Warshall, and the
# complete graphs kneser(p, 1) for 2 <= p <= 12
KNESER_DISTANCE_SPECS = [
    (p, k) for p in range(5, 17) for k in range(2, (p + 1) // 2) if comb(p, k) <= 120
] + [(p, 1) for p in range(2, 13)]


@pytest.mark.parametrize("p, k", KNESER_DISTANCE_SPECS)
def test_kneser_distance_formula_matches_floyd_warshall(p, k):
    subsets = [frozenset(s) for s in combinations(range(p), k)]
    subsets.sort(key=lambda s: sorted(s, reverse=True))  # colex, as the oracle orders them
    dist = fw_distances(subset_graph_adjacency(p, k, disjoint=True))
    for u, a in enumerate(subsets):
        for v, b in enumerate(subsets):
            assert dist[u][v] == kneser_distance(p, k, len(a & b)), (u, v)
    report = kneser_closed_forms(p, k)
    assert set(map(sum, dist)) == {report.sigma}
    assert 2 * report.wiener == sum(map(sum, dist))
