from __future__ import annotations

import copy
import pickle

import pytest

from statusindex import (
    DEFAULT_SEED,
    DEMO_TAG,
    ERRATA,
    FamilySpec,
    Graph,
    VerificationCase,
    VerificationReport,
    VertexCapError,
    default_grid,
    demo_graph,
    parse_edge_list,
    random_connected_graph,
    random_corpus,
    transmission_profile,
    verify_family,
    verify_identities,
    verify_random_suite,
)
from statusindex import verify
from statusindex.verify import fixture_errata, registered_erratum

from oracles import graphs_up_to, is_connected, reference_random_connected_graph

#: (n values, edge probabilities) of the mixed and the dense corpus: graph
#: i has n = ns[i % len(ns)] and p = probs[(i // len(ns)) % len(probs)].
CORPUS_SCHEDULES = {
    False: (tuple(range(2, 11)), (0.25, 0.4, 0.55, 0.7, 0.85)),
    True: (tuple(range(4, 11)), (0.75, 0.85, 0.95, 1.0)),
}


#: OEIS A000088 and A001349: the graphs and the connected graphs on n
#: vertices, up to isomorphism.
GRAPH_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
#: Of the connected graphs on n vertices: those whose complement is
#: connected too, and those among them where both complement bounds hold
#: with equality.
COMPLEMENT_COUNTS = {
    2: (0, 0), 3: (0, 0), 4: (1, 0), 5: (8, 2), 6: (68, 16), 7: (662, 183),
}

def reference_corpus(count, seed, dense):
    ns, probs = CORPUS_SCHEDULES[dense]
    return [
        reference_random_connected_graph(
            ns[i % len(ns)], probs[(i // len(ns)) % len(probs)], seed + i
        )
        for i in range(count)
    ]


def per_graph_report(count, seed, dense):
    """The random suite checked graph by graph, with no reuse of rows."""
    kind = "dense" if dense else "mixed"
    return VerificationReport([
        case
        for i, g in enumerate(random_corpus(count=count, seed=seed, dense=dense))
        for case in verify_identities(g, case_id=f"random[{kind},seed={seed + i},n={g.n}]").cases
    ])


def rows_by_index(report):
    return {c.index_name: c for c in report.cases}


class TestErratumRegistry:
    def test_closed_form_entries(self):
        assert registered_erratum("hypercube", "s1_co") is not None
        assert registered_erratum("hypercube", "s2_co") is not None
        assert registered_erratum("kneser", "s2_co") is not None
        assert registered_erratum("kneser", "s1_co") is None
        assert registered_erratum("intersection", "s1") is None
        assert registered_erratum("nanotorus", "s2_co") is None

    def test_fixture_entry(self):
        entries = fixture_errata(DEMO_TAG)
        assert len(entries) == 1
        assert entries[0].index == "s1_co"
        assert entries[0].printed_value == 11

    def test_registry_is_exactly_four_entries(self):
        assert len(ERRATA) == 4

    def test_fixture_tags_and_graphs_correspond(self):
        # a fixture erratum naming a tag with no graph would never be checked
        fixture_entries = [e for e in ERRATA if e.fixture is not None]
        assert all(e.printed_value is not None for e in fixture_entries)
        assert {e.fixture for e in fixture_entries} == set(verify.FIXTURE_GRAPHS.values())
        assert verify.FIXTURE_GRAPHS == {demo_graph().adjacency: DEMO_TAG}


class TestVerifyFamily:
    def test_petersen_corrected_all_match(self):
        report = verify_family(FamilySpec.kneser(5, 2))
        rows = rows_by_index(report)
        assert report.ok
        assert {name: row.oracle for name, row in rows.items()} == {
            "sigma": 15, "wiener": 75, "s1": 450, "s2": 3375,
            "s1_co": 900, "s2_co": 6750,
        }
        assert all(row.match for row in rows.values())

    def test_hypercube_as_printed_flags_registered_errata(self):
        report = verify_family(FamilySpec.hypercube(2), mode="as_printed")
        rows = rows_by_index(report)
        assert rows["s1"].match and rows["s2"].match
        assert not rows["s1_co"].match and rows["s1_co"].registered_erratum
        assert not rows["s2_co"].match and rows["s2_co"].registered_erratum
        assert rows["s1_co"].formula == -16 and rows["s1_co"].oracle == 16
        assert rows["s2_co"].formula == 80 and rows["s2_co"].oracle == 32
        assert report.ok  # registered errata are not hard failures

    def test_complete_intersection_branch(self):
        report = verify_family(FamilySpec.intersection(3, 2))
        rows = rows_by_index(report)
        assert report.ok
        assert rows["s1_co"].oracle == 0 and rows["s2_co"].oracle == 0

    def test_nanotorus_orientation_exchange_is_noted_not_failed(self):
        report = verify_family(FamilySpec.nanotorus(4, 2))
        assert report.ok
        for row in report.cases:
            assert row.match
            assert "parameter exchange" in row.note

    def test_nanotorus_direct_match_has_no_note(self):
        report = verify_family(FamilySpec.nanotorus(2, 4))
        assert report.ok
        assert all(row.note == "" for row in report.cases)

    def test_rejects_family_without_closed_forms(self):
        with pytest.raises(ValueError, match="no closed forms"):
            verify_family(FamilySpec.cycle(5))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            verify_family(FamilySpec.hypercube(2), mode="printed")

    def test_checks_the_vertex_cap_before_the_closed_forms(self, monkeypatch):
        # the closed forms of hypercube(n) have about 3n bits
        def unreachable(spec):
            raise AssertionError("closed forms evaluated above the vertex cap")

        monkeypatch.setattr(verify, "closed_forms_for", unreachable)
        with pytest.raises(VertexCapError):
            verify_family(FamilySpec.hypercube(10 ** 4))


class TestVerifyGrid:
    def test_corrected_grid_is_clean(self, grid_corrected):
        report = grid_corrected
        assert report.ok
        summary = report.summary()
        assert summary["cases"] == summary["passed"] == 36 * 6
        assert summary["hard_failures"] == 0

    def test_as_printed_grid_fails_only_on_registered_errata(self, grid_as_printed):
        report = grid_as_printed
        assert report.ok
        mismatches = {
            (c.case_id, c.index_name) for c in report.cases if not c.match and c.registered_erratum
        }
        families = {case.split("(")[0] for case, _ in mismatches}
        assert families == {"hypercube", "kneser"}
        indices = {index for _, index in mismatches}
        assert indices == {"s1_co", "s2_co"}
        # every registered closed-form erratum shows up somewhere on the grid
        assert ("hypercube(n=2)", "s1_co") in mismatches
        assert ("hypercube(n=2)", "s2_co") in mismatches
        assert ("kneser(p=5, k=2)", "s2_co") in mismatches


class TestVerifyIdentities:
    def test_demo_graph_with_fixture_tag(self):
        report = verify_identities(demo_graph(), case_id="demo5")
        rows = rows_by_index(report)
        assert rows["identity.s1_co"].oracle == 22 and rows["identity.s1_co"].match
        assert rows["identity.s2_co"].oracle == 60 and rows["identity.s2_co"].match
        # diameter 2: all four degree-based formulas apply
        for name in (
            "diam2_zagreb.s1_co", "diam2_zagreb.s2_co",
            "diam2_zagreb_co.s1_co", "diam2_zagreb_co.s2_co",
        ):
            assert rows[name].match
        published = rows["published.s1_co"]
        assert published.formula == 11 and published.oracle == 22
        assert not published.match and published.registered_erratum
        assert report.ok  # the registered mismatch is not a hard failure

    def test_fixture_tag_needs_the_fixture_graph(self, demo5_path, p4_path, monkeypatch):
        # the registry records 11 against 22 on the fixture only: on P4 the
        # published row would read 11 vs 32, on K1 11 vs 0
        for g in (parse_edge_list(p4_path.read_text()), Graph(1, ((),))):
            report = verify_identities(g)
            assert not any(c.index_name.startswith("published.") for c in report.cases)
        # the fixture is recognised from its edges by one lookup, without
        # building the fixture graph again
        monkeypatch.setattr(verify, "demo_graph", None)
        report = verify_identities(parse_edge_list(demo5_path.read_text()), case_id="file")
        published = [c for c in report.cases if c.index_name.startswith("published.")]
        assert [(c.case_id, c.index_name, c.oracle, c.formula) for c in published] == [
            ("file", "published.s1_co", 22, 11)
        ]

    def test_random_suite_reports_each_draw_of_the_fixture(self):
        # seed 345 of the dense corpus draws the fixture graph
        report = verify_random_suite(count=345, seed=1, dense=True)
        published = [c for c in report.cases if c.index_name.startswith("published.")]
        assert [(c.case_id, c.oracle, c.formula, c.registered_erratum) for c in published] == [
            ("random[dense,seed=345,n=5]", 22, 11, True)
        ]
        assert report.ok and report.summary()["registered_errata"] == 1

    def test_demo_graph_complement_is_disconnected_so_no_bound_rows(self):
        report = verify_identities(demo_graph())
        assert not any(
            c.index_name.startswith("complement_bound") for c in report.cases
        )

    def test_p4_bound_rows(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rows = rows_by_index(verify_identities(g))
        assert rows["complement_bound.s1"].formula == 26
        assert rows["complement_bound.s1"].oracle == 28
        assert rows["complement_bound.s1"].match  # bound holds strictly
        assert rows["complement_bound.equality_iff"].oracle == 0
        assert rows["complement_bound.equality_iff"].match

    def test_large_diameter_graph_has_no_diam2_rows(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        report = verify_identities(g)
        assert not any("diam2" in c.index_name for c in report.cases)


    def test_every_connected_graph_on_two_to_seven_vertices(self):
        graphs = graphs_up_to(7)
        assert {n: len(graphs[n]) for n in GRAPH_COUNTS} == GRAPH_COUNTS
        complement_counts = {}
        for n in GRAPH_COUNTS:
            connected = [Graph.from_edges(n, edges) for edges in graphs[n] if is_connected(n, edges)]
            assert len(connected) == CONNECTED_COUNTS[n]
            with_complement = equality = 0
            for g in connected:
                rows = rows_by_index(verify_identities(g))
                assert not [c for c in rows.values() if c.hard_failure], g.adjacency
                if "complement_bound.equality_iff" in rows:
                    with_complement += 1
                    equality += rows["complement_bound.equality_iff"].formula
                # transmission-regular only when degree-regular
                if transmission_profile(g).regular_k is not None:
                    assert len(set(g.degrees)) == 1, g.adjacency
            complement_counts[n] = (with_complement, equality)
        assert complement_counts == COMPLEMENT_COUNTS

class TestRandomGraphs:
    def test_deterministic_for_a_seed(self):
        a = random_connected_graph(8, 0.4, seed=1)
        b = random_connected_graph(8, 0.4, seed=1)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        graphs = {random_connected_graph(8, 0.4, seed=s).adjacency for s in range(20)}
        assert len(graphs) > 1

    def test_probability_one_gives_complete_graph(self):
        g = random_connected_graph(2, 1.0, seed=99)
        assert g.m == 1

    def test_always_connected(self):
        from statusindex import transmission_profile

        for seed in range(30):
            g = random_connected_graph(9, 0.15, seed=seed)
            transmission_profile(g)  # raises if disconnected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_connected_graph(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_connected_graph(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_connected_graph(5, 1.5, seed=0)

    def test_corpus_is_deterministic(self):
        a = random_corpus(count=25, seed=DEFAULT_SEED)
        b = random_corpus(count=25, seed=DEFAULT_SEED)
        assert a == b
        assert len(a) == 25

    def test_dense_corpus_has_small_diameters(self):
        from statusindex import transmission_profile

        corpus = random_corpus(count=40, seed=DEFAULT_SEED, dense=True)
        small = sum(transmission_profile(g).diameter <= 2 for g in corpus)
        assert small > 20


class TestCorpusMatchesReference:
    """The generator draws the same graphs as the reference copy in
    ``tests/oracles.py``; low probabilities force many merges."""

    @pytest.mark.parametrize("p", (0.05, 0.1, 0.25, 0.55, 0.85, 1.0))
    def test_random_connected_graph(self, p):
        for n in range(2, 13):
            for seed in range(40):
                expected = reference_random_connected_graph(n, p, seed).adjacency
                assert random_connected_graph(n, p, seed).adjacency == expected, (n, seed)

    @pytest.mark.parametrize("dense", (False, True))
    @pytest.mark.parametrize("seed", (3, 501))
    def test_corpus(self, dense, seed):
        corpus = random_corpus(count=2000, seed=seed, dense=dense)
        expected = reference_corpus(2000, seed, dense)
        assert [g.adjacency for g in corpus] == [g.adjacency for g in expected]


class TestCorpusDedupe:
    @pytest.mark.parametrize("dense", (False, True))
    def test_validates_each_distinct_graph_once(self, dense):
        calls = []
        validate = Graph.__post_init__

        def counted(g):
            calls.append(g.adjacency)
            validate(g)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Graph, "__post_init__", counted)
            corpus = random_corpus(count=1000, seed=DEFAULT_SEED, dense=dense)
        assert len(calls) == len(set(calls)) == len({g.adjacency for g in corpus})
        assert len(calls) < len(corpus)

    @pytest.mark.parametrize("dense", (False, True))
    @pytest.mark.parametrize("seed", (7, DEFAULT_SEED))
    def test_suite_equals_per_graph_checks(self, dense, seed):
        count = 800
        report = verify_random_suite(count=count, seed=seed, dense=dense)
        expected = per_graph_report(count, seed, dense)
        assert report.cases == expected.cases
        assert report.summary() == expected.summary()
        kind = "dense" if dense else "mixed"
        ns = CORPUS_SCHEDULES[dense][0]
        assert {c.case_id for c in report.cases} == {
            f"random[{kind},seed={seed + k},n={ns[k % len(ns)]}]" for k in range(count)
        }

    @pytest.mark.parametrize("dense", (False, True))
    def test_checks_each_distinct_graph_once(self, dense):
        with pytest.MonkeyPatch.context() as mp:
            calls = []
            check = verify.verify_identities

            def counted(g, **kwargs):
                calls.append(g.adjacency)
                return check(g, **kwargs)

            mp.setattr(verify, "verify_identities", counted)
            report = verify_random_suite(count=700, seed=DEFAULT_SEED, dense=dense)
        corpus = random_corpus(count=700, seed=DEFAULT_SEED, dense=dense)
        assert len(calls) == len(set(calls)) == len({g.adjacency for g in corpus})
        assert report.summary()["cases"] > len(calls)


class TestVerifyRandomSuite:
    def test_small_suite_is_clean(self):
        report = verify_random_suite(count=30, seed=DEFAULT_SEED)
        assert report.ok
        assert report.summary()["hard_failures"] == 0
        identity_rows = [
            c for c in report.cases if c.index_name.startswith("identity.")
        ]
        assert len(identity_rows) == 60


class TestVerificationReport:
    def test_summary_and_hard_failures(self):
        cases = [
            VerificationCase("a", "s1", 1, 1, "corrected", True),
            VerificationCase("a", "s2", 1, 2, "corrected", False),
            VerificationCase("b", "s1_co", 3, 4, "as_printed", False, True),
        ]
        report = VerificationReport(cases=cases)
        assert report.summary() == {
            "cases": 3, "passed": 1, "registered_errata": 1, "hard_failures": 1,
        }
        assert not report.ok
        assert [c.case_id for c in report.cases if c.hard_failure] == ["a"]

    def test_sorted_cases_order(self):
        cases = [
            VerificationCase("b", "s1", 0, 0, "corrected", True),
            VerificationCase("a", "s2", 0, 0, "corrected", True),
            VerificationCase("a", "s1", 0, 0, "corrected", True),
        ]
        report = VerificationReport(cases=cases)
        assert [(c.case_id, c.index_name) for c in report.cases] == [
            ("a", "s1"), ("a", "s2"), ("b", "s1"),
        ]

    def test_reports_of_the_same_cases_are_equal_in_any_order(self):
        a = VerificationCase("a", "s2", 1, 2, "corrected", False)
        b = VerificationCase("a", "s1", 1, 1, "corrected", True)
        ab, ba = VerificationReport([a, b]), VerificationReport([b, a])
        assert ab == ba and hash(ab) == hash(ba)
        assert ab.cases == ba.cases == (b, a)
        rebuilt = pickle.loads(pickle.dumps(ab))
        assert rebuilt == ab and rebuilt == ba

    def test_an_immutable_value_built_once(self, monkeypatch):
        cases = [
            VerificationCase("a", "s1", 1, 1, "corrected", True),
            VerificationCase("b", "s2", 2, 3, "corrected", False),
        ]
        report = VerificationReport(cases=cases)
        assert report.cases == tuple(cases) and type(report.cases) is tuple
        cases.pop()  # the caller's list is copied, not aliased
        assert len(report.cases) == 2
        for name in ("cases", "other"):
            with pytest.raises(AttributeError):
                setattr(report, name, ())
            with pytest.raises(AttributeError):
                delattr(report, name)
        assert not hasattr(report, "extend")
        equal = VerificationReport(iter(report.cases))
        assert report == equal and hash(report) == hash(equal)
        assert report != VerificationReport() and report != report.cases
        assert repr(report) == f"VerificationReport(cases={report.cases!r})"
        calls = []
        init = VerificationReport.__init__

        def counted(self, cases=()):
            calls.append(len(cases))
            init(self, cases)

        monkeypatch.setattr(VerificationReport, "__init__", counted)
        for rebuilt in (copy.copy(report), copy.deepcopy(report),
                        pickle.loads(pickle.dumps(report))):
            assert rebuilt == report and rebuilt is not report
            assert hash(rebuilt) == hash(report)
            assert type(rebuilt.cases) is tuple
        assert calls == [2] * 3
        assert not hasattr(report, "__dict__")

    def test_default_grid_composition(self):
        grid = default_grid()
        kinds = [spec.kind for spec in grid]
        assert kinds.count("hypercube") == 13
        assert kinds.count("kneser") == 7
        assert kinds.count("intersection") == 6
        assert kinds.count("nanotorus") == 10
