from __future__ import annotations

import copy
import pickle
from itertools import product

import pytest

from statusindex import (
    DEFAULT_MAX_VERTICES,
    FamilyError,
    FamilySpec,
    Graph,
    VertexCapError,
    default_grid,
    format_edge_list,
    generate,
    transmission_profile,
)
from statusindex import cli, families
from statusindex.cli import main
from statusindex.closed_forms import CLOSED_FORMS
from statusindex.families import (
    FAMILIES, MAX_EDGES, Family, above_cap, edge_count, validate,
)

from oracles import complement, oracle_profile, subset_graph_adjacency


class TestFamilySpec:
    def test_label(self):
        assert FamilySpec.kneser(5, 2).label() == "kneser(p=5, k=2)"
        assert FamilySpec.hypercube(3).label() == "hypercube(n=3)"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FamilyError, match="unknown family"):
            FamilySpec("ladder", (3,))

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(FamilyError, match="takes parameters"):
            FamilySpec("kneser", (5,))

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(FamilyError, match="positive"):
            FamilySpec.path(0)

    def test_every_route_runs_the_validator(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec.params)
            validate(spec)

        monkeypatch.setattr(families, "validate", counted)
        spec = FamilySpec("kneser", (5, 2))
        assert FamilySpec.kneser(5, 2) == spec
        for rebuilt in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert rebuilt == spec and rebuilt is not spec
        assert calls == [(5, 2)] * 5
        assert not any(hasattr(spec, name) for name in ("_make", "_replace", "__dict__"))
        with pytest.raises(FamilyError, match="positive"):
            FamilySpec("path", (-1,))

    def test_fields_are_read_only(self):
        spec = FamilySpec.hypercube(3)
        for name in ("kind", "params", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, (-1,))
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert spec == FamilySpec.hypercube(3)

    def test_equality_hash_and_repr(self):
        assert FamilySpec.kneser(5, 2) == FamilySpec("kneser", (5, 2))
        assert FamilySpec.kneser(5, 2) != FamilySpec.kneser(7, 2)
        assert FamilySpec.path(3) != FamilySpec.complete(3)
        assert FamilySpec.path(3) != ("path", (3,))
        assert len({FamilySpec.path(3), FamilySpec.path(3), FamilySpec.cycle(3)}) == 2
        assert repr(FamilySpec.path(3)) == "FamilySpec(kind='path', params=(3,))"


class TestHypercube:
    def test_dimension_two_is_the_four_cycle(self):
        g = generate(FamilySpec.hypercube(2))
        assert g.n == 4 and g.m == 4
        assert g.degrees == (2, 2, 2, 2)
        assert transmission_profile(g).regular_k == 4

    def test_dimension_one_is_a_single_edge(self):
        g = generate(FamilySpec.hypercube(1))
        assert g.n == 2 and g.m == 1

    def test_counts_and_transmission(self):
        for n in range(1, 8):
            g = generate(FamilySpec.hypercube(n))
            assert g.n == 2 ** n
            assert g.m == n * 2 ** (n - 1)
            assert set(g.degrees) == {n}
            assert transmission_profile(g).regular_k == n * 2 ** (n - 1)


class TestKneser:
    def test_petersen(self):
        g = generate(FamilySpec.kneser(5, 2))
        assert g.n == 10 and g.m == 15
        assert set(g.degrees) == {3}
        tp = transmission_profile(g)
        assert tp.regular_k == 15 and tp.diameter == 2

    def test_k_equal_one_is_complete(self):
        g = generate(FamilySpec.kneser(4, 1))
        assert g.m == 6 and set(g.degrees) == {3}

    def test_degree_formula(self):
        from math import comb

        for p, k in ((5, 2), (6, 2), (7, 2), (7, 3)):
            g = generate(FamilySpec.kneser(p, k))
            assert g.n == comb(p, k)
            assert set(g.degrees) == {comb(p - k, k)}

    def test_p_equal_2k_rejected_as_disconnected(self):
        with pytest.raises(FamilyError, match="disconnected"):
            FamilySpec.kneser(4, 2)

    def test_p_below_connectivity_threshold_rejected(self):
        with pytest.raises(FamilyError):
            FamilySpec.kneser(5, 3)


class TestIntersection:
    def test_p4_t2(self):
        g = generate(FamilySpec.intersection(4, 2))
        assert g.n == 6 and g.m == 12
        assert set(g.degrees) == {4}
        assert transmission_profile(g).regular_k == 6

    def test_small_branch_is_complete(self):
        g = generate(FamilySpec.intersection(3, 2))
        assert g.n == 3 and g.m == 3
        g = generate(FamilySpec.intersection(4, 3))
        assert g.n == 4 and g.m == 6

    def test_is_kneser_complement_for_large_p(self):
        for p, t in ((5, 2), (6, 2), (7, 3)):
            inter = generate(FamilySpec.intersection(p, t))
            kneser = generate(FamilySpec.kneser(p, t))
            assert inter == complement(kneser)

    def test_parameter_window_enforced(self):
        with pytest.raises(FamilyError, match="1 < t < p"):
            FamilySpec.intersection(4, 1)
        with pytest.raises(FamilyError, match="1 < t < p"):
            FamilySpec.intersection(3, 3)


class TestSubsetFamilies:
    @pytest.mark.parametrize("p", range(1, 10))
    def test_match_frozenset_definition(self, p):
        for k in range(1, p + 1):
            if k == 1 < p or p >= 2 * k + 1:
                g = generate(FamilySpec.kneser(p, k))
                assert g.adjacency == subset_graph_adjacency(p, k, disjoint=True)
        for t in range(2, p):
            g = generate(FamilySpec.intersection(p, t))
            assert g.adjacency == subset_graph_adjacency(p, t, disjoint=False)

    @pytest.mark.parametrize("kind", ["kneser", "intersection"])
    def test_order_330_matches_frozenset_definition(self, kind):
        g = generate(FamilySpec(kind, (11, 4)))
        assert g.adjacency == subset_graph_adjacency(11, 4, disjoint=kind == "kneser")

    @pytest.mark.parametrize("kind", ["kneser", "intersection"])
    def test_rows_share_one_int_per_rank(self, kind):
        # 330 vertices: most ranks lie above CPython's cache of small ints
        g = generate(FamilySpec(kind, (11, 4)))
        assert g.n == 330
        assert len({id(v) for row in g.adjacency for v in row}) == g.n


class TestNanotorus:
    GRID = ((4, 2), (2, 4), (4, 4), (6, 4), (4, 6), (8, 6))

    def test_grid_pairs_are_cubic_and_transmission_regular(self):
        for p, q in self.GRID:
            g = generate(FamilySpec.nanotorus(p, q))
            assert g.n == p * q
            assert g.m == 3 * p * q // 2
            assert set(g.degrees) == {3}
            assert transmission_profile(g).regular_k is not None

    def test_smallest_pair_collapses_to_the_three_cube(self):
        # only one cubic hexagonal closure exists on 8 vertices, so the
        # two parameter orientations generate the same graph
        a = generate(FamilySpec.nanotorus(4, 2))
        b = generate(FamilySpec.nanotorus(2, 4))
        assert a == b
        assert transmission_profile(a).regular_k == 12

    def test_transmissions_match_expected_values(self):
        # frozen from the BFS oracle; see also the closed-form tests
        expected = {(2, 4): 12, (4, 4): 36, (6, 4): 76, (4, 6): 64, (8, 6): 208}
        for (p, q), k in expected.items():
            g = generate(FamilySpec.nanotorus(p, q))
            assert transmission_profile(g).regular_k == k

    def test_odd_parameters_rejected(self):
        with pytest.raises(FamilyError, match="even"):
            FamilySpec.nanotorus(3, 2)
        with pytest.raises(FamilyError, match="even"):
            FamilySpec.nanotorus(4, 3)

    def test_two_by_two_rejected(self):
        with pytest.raises(FamilyError, match="no 3-regular realization"):
            FamilySpec.nanotorus(2, 2)


class TestBasicFamilies:
    def test_path_cycle_complete(self):
        assert generate(FamilySpec.path(4)).m == 3
        assert generate(FamilySpec.cycle(5)).degrees == (2,) * 5
        assert generate(FamilySpec.complete(4)).m == 6

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(FamilyError):
            FamilySpec.cycle(2)

    def test_single_vertex_path(self):
        g = generate(FamilySpec.path(1))
        assert g.n == 1 and g.m == 0


class TestGenerationContracts:
    @pytest.fixture(scope="class")
    def swept(self):
        """(spec, graph) for every valid spec of every kind in FAMILIES with
        parameters in 1..11 that ``generate`` builds, so a family added to
        the table is covered here with no edit."""
        swept = []
        for kind, family in FAMILIES.items():
            for params in product(range(1, 12), repeat=len(family.params)):
                try:
                    spec = FamilySpec(kind, params)
                    swept.append((spec, generate(spec)))
                except FamilyError:  # VertexCapError included
                    pass
        return swept

    def test_generation_is_deterministic(self, swept):
        for spec, g in swept:
            assert format_edge_list(generate(spec)) == format_edge_list(g)

    def test_static_constructors_build_the_same_spec(self, swept):
        for spec, _ in swept:
            assert getattr(FamilySpec, spec.kind)(*spec.params) == spec
        # parameters are positional only, in FAMILIES order
        for call in (lambda: FamilySpec.kneser(p=5, k=2), lambda: FamilySpec.kneser(5, k=2)):
            with pytest.raises(TypeError, match=r"^FamilySpec\.kneser\(\) got an unexpected "
                                                r"keyword argument '[pk]'$"):
                call()

    def test_generated_graphs_are_connected(self, swept):
        for spec, g in swept:
            if g.n <= 40:  # the Floyd-Warshall oracle is cubic
                sigma, _, _ = oracle_profile(g.adjacency)
                assert not above_cap(spec, len(sigma)) and above_cap(spec, len(sigma) - 1)

    def test_vertex_cap(self):
        with pytest.raises(VertexCapError, match="cap"):
            generate(FamilySpec.hypercube(15))
        for huge in (FamilySpec.hypercube(10 ** 9), FamilySpec.kneser(10 ** 6, 4 * 10 ** 5),
                     FamilySpec.intersection(10 ** 6, 5 * 10 ** 5)):
            with pytest.raises(VertexCapError, match="more vertices than the cap of 20000$"):
                generate(huge)
        assert generate(FamilySpec.path(DEFAULT_MAX_VERTICES)).n == DEFAULT_MAX_VERTICES
        with pytest.raises(VertexCapError, match=r"^path\(n=20001\) has more vertices"):
            generate(FamilySpec.path(DEFAULT_MAX_VERTICES + 1))

    def test_above_cap_matches_the_exact_order(self, swept):
        for spec, g in swept:
            for cap in sorted({-1, 0, 1, g.n - 1, g.n, g.n + 1}):
                assert above_cap(spec, cap) == (g.n > cap), (spec, cap)

    def test_expected_order(self):
        # above_cap is the only route to a spec's order; the built graph is another
        specs = [FamilySpec.hypercube(10), FamilySpec.kneser(9, 4), FamilySpec.nanotorus(8, 6)]
        assert [generate(spec).n for spec in specs] == [1024, 126, 48]
        specs += default_grid()
        specs += [FamilySpec.path(n) for n in (1, 2, 9)]
        specs += [FamilySpec.cycle(n) for n in (3, 10)]
        specs += [FamilySpec.complete(n) for n in (1, 2, 7)]
        for spec in specs:
            n = generate(spec).n
            assert not above_cap(spec, n) and above_cap(spec, n - 1), spec

    def test_edge_count_matches_the_generated_graph(self, swept):
        for spec, g in swept:
            assert edge_count(spec) == g.m, spec

    def test_edge_cap(self):
        # the densest graph the benchmark builds stays far below the cap
        assert edge_count(FamilySpec.intersection(13, 4)) == 210210
        assert edge_count(FamilySpec.complete(2000)) <= MAX_EDGES
        assert edge_count(FamilySpec.complete(2001)) > MAX_EDGES
        with pytest.raises(VertexCapError, match=r"^complete\(n=2001\) has 2001000 edges, "
                           r"more than the cap of 2000000$"):
            generate(FamilySpec.complete(2001))


class TestOneEntryPerFamily:
    STAR = Family(
        params=("n",), check=lambda n: None if n >= 2 else ": a star needs n >= 2",
        order_above=lambda cap, n: n > cap, edges=lambda n: n - 1,
        build=lambda n: Graph.from_edges(n, ((0, v) for v in range(1, n))),
    )

    def test_a_table_entry_is_the_whole_family(self, monkeypatch, capsys):
        # the command line takes the family once its name is also a --family choice
        monkeypatch.setitem(FAMILIES, "star", self.STAR)
        monkeypatch.setattr(cli, "_FAMILY_CHOICES", (*cli._FAMILY_CHOICES, "star"))
        spec = FamilySpec("star", (5,))
        validate(spec)
        assert spec.label() == "star(n=5)"
        assert (above_cap(spec, 4), above_cap(spec, 5), edge_count(spec)) == (True, False, 4)
        assert generate(spec) == Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        with pytest.raises(FamilyError, match=r"^star\(n=1\): a star needs n >= 2$"):
            FamilySpec("star", (1,))
        with pytest.raises(VertexCapError, match=r"^star\(n=20001\) has more vertices"):
            generate(FamilySpec("star", (20001,)))
        assert main(["generate", "--family", "star", "--n", "3"]) == 0
        assert capsys.readouterr().out == format_edge_list(generate(FamilySpec("star", (3,))))

    def test_every_rule_is_stated(self):
        assert Family._field_defaults == {}
        assert set(CLOSED_FORMS) <= set(FAMILIES)
        names = {name for family in FAMILIES.values() for name in family.params}
        assert set(cli._PARAM_FLAGS) == names
