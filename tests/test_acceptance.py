"""Acceptance suite: one test per exit criterion, every comparison at
exact integer equality. Each test ends by printing a PASS line; run
with ``pytest -s tests/test_acceptance.py`` to see them.
"""
from __future__ import annotations

import json
import subprocess
import sys

from statusindex import (
    DEFAULT_SEED,
    FamilySpec,
    Graph,
    closed_forms_for,
    complement_bounds,
    compute_index_bundle,
    diam2_coindex_formulas,
    generate,
    parse_edge_list,
    random_corpus,
    status_coindices_direct,
    status_coindices_identity,
    status_indices,
    transmission_profile,
    verify_family,
    verify_identities,
)

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

NANOTORUS_GRID = ((4, 2), (2, 4), (4, 4), (6, 4), (4, 6), (8, 6))


def _pass(number: int, text: str) -> None:
    print(f"\nACCEPTANCE criterion {number}: PASS - {text}")


def test_criterion_1_demo_fixture(demo5_path):
    g = parse_edge_list(demo5_path.read_text())
    bundle = compute_index_bundle(g)
    assert bundle.s1 == 74
    assert bundle.s2 == 169
    assert bundle.s2_co == 60
    assert bundle.s1_co == 22
    report = verify_identities(g, case_id="demo5")
    published = [c for c in report.cases if c.index_name == "published.s1_co"]
    assert len(published) == 1
    row = published[0]
    assert row.formula == 11 and row.oracle == 22
    assert not row.match and row.registered_erratum
    assert report.ok
    _pass(1, "demo fixture: s1=74 s2=169 s2_co=60, s1_co=22 with the "
             "published 11 reported as a registered erratum")


def test_criterion_2_identity_suite():
    corpus = random_corpus(count=200, seed=DEFAULT_SEED)
    assert len(corpus) == 200
    failures = 0
    for g in corpus:
        assert g.n <= 10
        tp = transmission_profile(g)
        s1, s2 = status_indices(g, tp)
        if status_coindices_identity(tp, s1, s2) != status_coindices_direct(g, tp):
            failures += 1
    assert failures == 0
    _pass(2, "identity-path co-indices equal definition-path co-indices on "
             "200 seeded random connected graphs, 0 failures")


def test_criterion_3_diameter_two_suite():
    from statusindex import demo_graph

    graphs = random_corpus(count=200, seed=DEFAULT_SEED, dense=True) + [C5, demo_graph()]
    checked = 0
    for g in graphs:
        tp = transmission_profile(g)
        if tp.diameter > 2:
            continue
        checked += 1
        direct = status_coindices_direct(g, tp)
        d2 = diam2_coindex_formulas(g, tp)
        assert (d2.s1_co_from_zagreb, d2.s2_co_from_zagreb) == direct
        assert (d2.s1_co_from_zagreb_co, d2.s2_co_from_zagreb_co) == direct
    assert checked >= 50  # the dense corpus must actually exercise the suite
    _pass(3, f"all four diameter<=2 co-index formulas equal the direct sums "
             f"on {checked} graphs (dense corpus + calibration graphs)")


def test_criterion_4_complement_bounds_suite():
    from statusindex import DisconnectedGraphError

    checked = 0
    for g in random_corpus(count=200, seed=DEFAULT_SEED):
        try:
            bounds = complement_bounds(g)
        except DisconnectedGraphError:
            continue
        checked += 1
        assert bounds.s1_actual >= bounds.s1_lower
        assert bounds.s2_actual >= bounds.s2_lower
        assert bounds.equality == (bounds.complement_diameter <= 2)
    assert checked >= 20
    calibration = complement_bounds(C5)
    assert (calibration.s1_lower, calibration.s1_actual) == (60, 60)
    assert (calibration.s2_lower, calibration.s2_actual) == (180, 180)
    assert calibration.equality
    strict = complement_bounds(P4)
    assert (strict.s1_lower, strict.s1_actual) == (26, 28)
    assert not strict.equality
    _pass(4, f"complement lower bounds hold with equality iff diam<=2 on "
             f"{checked} corpus graphs; C5 equality at 60/180, P4 strict at 26<28")


def test_criterion_5_family_grid_corrected(grid_corrected):
    report = grid_corrected
    summary = report.summary()
    assert summary["hard_failures"] == 0
    assert summary["passed"] == summary["cases"] == 216  # 36 specs x 6 quantities
    petersen = {
        c.index_name: c.oracle
        for c in report.cases
        if c.case_id == "kneser(p=5, k=2)"
    }
    assert petersen == {
        "sigma": 15, "wiener": 75, "s1": 450, "s2": 3375, "s1_co": 900, "s2_co": 6750,
    }
    _pass(5, "BFS values equal corrected closed forms on the whole family grid "
             "(216/216); Petersen checkpoint 15/75/450/3375/900/6750")


def test_criterion_6_as_printed_mode(grid_as_printed):
    report = grid_as_printed
    assert report.ok  # nothing unregistered
    mismatches = {
        (c.case_id, c.index_name): (c.formula, c.oracle)
        for c in report.cases
        if not c.match
    }
    assert all(c.registered_erratum for c in report.cases if not c.match)
    # the three registered spot checks, at their exact values
    assert mismatches[("hypercube(n=2)", "s1_co")] == (-16, 16)
    assert mismatches[("hypercube(n=2)", "s2_co")] == (80, 32)
    assert mismatches[("kneser(p=5, k=2)", "s2_co")] == (7800, 6750)
    # nowhere else on the grid: only hypercube co-indices and kneser s2_co
    for (case_id, index_name) in mismatches:
        family = case_id.split("(")[0]
        assert (family, index_name) in {
            ("hypercube", "s1_co"), ("hypercube", "s2_co"), ("kneser", "s2_co"),
        }
    _pass(6, f"as-printed mode mismatches occur exactly at the "
             f"{len(mismatches)} registered erratum instances and nowhere else")


def test_criterion_7_nanotorus_construction_gate():
    # the grid's tori plus every even size with p <= 10 and 4 <= q <= 12,
    # and the transposed q = 2 tori
    sizes = dict.fromkeys(
        NANOTORUS_GRID
        + tuple((p, q) for p in range(2, 11, 2) for q in range(4, 13, 2))
        + tuple((p, 2) for p in range(4, 11, 2))
    )
    exchanges = []
    for p, q in sizes:
        spec = FamilySpec.nanotorus(p, q)
        g = generate(spec)
        assert g.n == p * q
        assert g.m == 3 * p * q // 2
        assert set(g.degrees) == {3}
        tp = transmission_profile(g)
        assert tp.regular_k is not None
        report = verify_family(spec)
        assert report.ok
        exchanged = ["parameter exchange" in c.note for c in report.cases]
        if tp.regular_k == closed_forms_for(spec).sigma:
            assert not any(exchanged), (p, q)
            continue
        # orientation exchange: must match the swapped parameters and the
        # harness must say so on every row
        swapped = closed_forms_for(FamilySpec.nanotorus(q, p)).sigma
        assert tp.regular_k == swapped
        assert all(exchanged), (p, q)
        exchanges.append((p, q))
    # the ring direction collapses only at q=2
    assert exchanges == [(4, 2), (6, 2), (8, 2), (10, 2)]
    _pass(7, f"all {len(sizes)} tori are 3-regular with 3pq/2 edges and "
             "transmission-regular at the branch value with the ring along q; "
             "the (p,2) orientation exchanges are reported")


def _cli(*argv: str) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "statusindex", *argv],
        capture_output=True, check=True,
    )
    return result.stdout


def test_criterion_8_determinism(tmp_path, demo5_path):
    gen_args = ("generate", "--family", "kneser", "--p", "7", "--k", "3")
    assert _cli(*gen_args) == _cli(*gen_args)

    compute_1 = _cli("compute", str(demo5_path), "--json")
    compute_2 = _cli("compute", str(demo5_path), "--json")
    assert compute_1 == compute_2

    verify_args = ("verify", "--family", "random", "--count", "20",
                   "--seed", str(DEFAULT_SEED), "--json")
    assert _cli(*verify_args) == _cli(*verify_args)

    grid_args = ("verify", "--family", "nanotorus", "--json")
    assert _cli(*grid_args) == _cli(*grid_args)

    path = tmp_path / "torus.edges"
    _cli("generate", "--family", "nanotorus", "--p", "6", "--q", "4", "-o", str(path))
    first = path.read_bytes()
    _cli("generate", "--family", "nanotorus", "--p", "6", "--q", "4", "-o", str(path))
    assert path.read_bytes() == first

    payload = json.loads(compute_1)
    assert payload["s1"] == 74
    _pass(8, "edge-list and JSON outputs are byte-identical across repeated "
             "runs, seeds fixed")
