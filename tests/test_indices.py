from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from statusindex import (
    DisconnectedGraphError,
    Graph,
    complement_bounds,
    compute_index_bundle,
    diam2_coindex_formulas,
    edge_sums,
    nonedge_sums,
    status_coindices_direct,
    status_coindices_identity,
    status_indices,
    transmission_profile,
    transmission_regular_indices,
    zagreb_coindices,
    zagreb_coindices_identity,
    zagreb_indices,
)
from statusindex import FamilySpec, closed_forms, generate, indices
from statusindex.graph import exact_div
from statusindex.indices import coindex_identity
from statusindex.verify import demo_graph, random_connected_graph

from conftest import long_graphs
from oracles import oracle_edge_sums, oracle_indices, oracle_nonedge_sums

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K1 = Graph(1, ((),))
K2 = Graph.from_edges(2, [(0, 1)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
K5 = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def profiled(g):
    return g, transmission_profile(g)


def random_graphs(max_n=10):
    return st.builds(
        random_connected_graph,
        n=st.integers(2, max_n),
        edge_probability=st.sampled_from([0.25, 0.4, 0.6, 0.8, 0.95]),
        seed=st.integers(0, 10_000),
    )


def star(n):
    """K_{1,n-1}: vertex 0 joined to every other vertex."""
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


class TestEdgeSums:
    def test_path_by_hand(self):
        # edges 01 and 12: (1+2) + (2+3) and 1*2 + 2*3
        assert edge_sums(P3.adjacency, (1, 2, 3)) == (8, 8)

    def test_asymmetric_rows_break_the_halving(self):
        with pytest.raises(ArithmeticError, match="both ends"):
            edge_sums(((1,), ()), (1, 1))
        # every exact division in the package, closed forms included, is
        # this one helper, and a remainder is a broken invariant
        assert closed_forms.exact_div is indices.exact_div is exact_div
        assert exact_div(-96, 12, "nanotorus s2") == -8
        with pytest.raises(ArithmeticError, match=r"^nanotorus s2 is not an integer: 100/96$"):
            exact_div(100, 96, "nanotorus s2")


@st.composite
def weighted_graphs(draw):
    """Graphs on 1..12 vertices, connected or not, with one weight per
    vertex: arbitrary up to 2^70 in size, all equal, or all zero."""
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = st.one_of(st.integers(0, 3), st.integers(-(2**70), 2**70))
    weights = draw(
        st.one_of(
            st.lists(weight, min_size=n, max_size=n),
            weight.map(lambda w: [w] * n),
            st.just([0] * n),
        )
    )
    return Graph.from_edges(n, edges), weights


class TestEdgeSumsOnAnyWeights:
    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_matches_edge_enumeration(self, graph_and_weights):
        # isolated vertices, K1 and one-entry rows included
        g, weights = graph_and_weights
        assert edge_sums(g.adjacency, weights) == oracle_edge_sums(g.adjacency, weights)

    def test_rows_of_zero_and_one_entries(self):
        assert edge_sums(K1.adjacency, (2**70,)) == (0, 0)
        assert edge_sums(K2.adjacency, (3, -(2**70))) == (3 - 2**70, -3 * 2**70)
        assert edge_sums(((1,), (0,), ()), (5, 7, 11)) == (12, 35)


class TestNonedgeSums:
    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs())
    def test_matches_pair_enumeration(self, graph_and_weights):
        g, weights = graph_and_weights
        expected = oracle_nonedge_sums(g.adjacency, weights)
        assert nonedge_sums(g.adjacency, weights) == expected
        # the pair-sum identity holds for any weights, not only sigma and degrees
        squares = sum(w * w for w in weights)
        assert coindex_identity(g.n, sum(weights), squares, *edge_sums(g.adjacency, weights)) == expected

    @pytest.mark.parametrize("g", [K1, K2, K4, K5], ids=["K1", "K2", "K4", "K5"])
    def test_complete_graphs_have_no_non_edges(self, g):
        assert nonedge_sums(g.adjacency, [2**70 + v for v in range(g.n)]) == (0, 0)

    def test_path_by_hand(self):
        # the one non-edge is 02: 1 + 3 and 1 * 3
        assert nonedge_sums(P3.adjacency, (1, 2, 3)) == (4, 3)


class TestStatusIndices:
    def test_demo_graph_values(self):
        g, tp = profiled(demo_graph())
        assert status_indices(g, tp) == (74, 169)

    def test_smallest_path(self):
        g, tp = profiled(P3)
        assert status_indices(g, tp) == (10, 12)

    def test_five_cycle_matches_2mk_and_mk2(self):
        g, tp = profiled(C5)
        assert status_indices(g, tp) == (2 * 5 * 6, 5 * 6 * 6)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=9))
    def test_matches_oracle(self, g):
        tp = transmission_profile(g)
        expected = oracle_indices(g.adjacency)
        assert status_indices(g, tp) == (expected["s1"], expected["s2"])


class TestStatusCoindices:
    def test_demo_graph_direct(self):
        g, tp = profiled(demo_graph())
        assert status_coindices_direct(g, tp) == (22, 60)

    def test_complete_graph_has_no_non_edges(self):
        g, tp = profiled(K5)
        assert status_coindices_direct(g, tp) == (0, 0)

    def test_smallest_path_direct(self):
        g, tp = profiled(P3)
        assert status_coindices_direct(g, tp) == (6, 9)

    def test_demo_graph_identity_path(self):
        g, tp = profiled(demo_graph())
        s1, s2 = status_indices(g, tp)
        assert status_coindices_identity(tp, s1, s2) == (2 * 4 * 12 - 74, 60)

    def test_five_cycle_identity_path(self):
        g, tp = profiled(C5)
        s1, s2 = status_indices(g, tp)
        s1_co, _ = status_coindices_identity(tp, s1, s2)
        assert s1_co == 2 * 4 * 15 - 60 == 60

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=12))
    def test_direct_matches_oracle(self, g):
        tp = transmission_profile(g)
        expected = oracle_indices(g.adjacency)
        assert status_coindices_direct(g, tp) == (expected["s1_co"], expected["s2_co"])

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_identity_equals_direct(self, g):
        tp = transmission_profile(g)
        s1, s2 = status_indices(g, tp)
        assert status_coindices_identity(tp, s1, s2) == status_coindices_direct(g, tp)


class TestZagreb:
    def test_five_cycle(self):
        assert zagreb_indices(C5) == (20, 20)
        assert zagreb_coindices(C5) == (20, 20)

    def test_p4_by_hand(self):
        assert zagreb_indices(P4) == (10, 8)
        assert zagreb_coindices(P4) == (8, 5)

    def test_complete_graph_coindices_vanish(self):
        assert zagreb_coindices(K4) == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=9))
    def test_matches_oracle(self, g):
        expected = oracle_indices(g.adjacency)
        assert zagreb_indices(g) == (expected["m1"], expected["m2"])
        assert zagreb_coindices(g) == (expected["m1_co"], expected["m2_co"])
        m1, m2 = zagreb_indices(g)
        assert zagreb_coindices_identity(g.n, g.m, m1, m2) == zagreb_coindices(g)


class TestIndexBundle:
    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=9))
    def test_bundle_matches_oracle(self, g):
        bundle = compute_index_bundle(g)
        expected = oracle_indices(g.adjacency)
        for name in ("s1", "s2", "s1_co", "s2_co", "m1", "m2", "m1_co", "m2_co", "wiener"):
            value = getattr(bundle, name)
            assert value == expected[name], name
            assert value >= 0

    # The packed pass splits S1, M1, S2 and M2 out of one edge_sums call:
    # stars and long paths and cycles have sigma far above d, complete
    # graphs sigma = d, where the dropped middle field reaches its bound.
    @pytest.mark.parametrize("g", [
        K1,
        K2,
        *(star(n) for n in (3, 4, 300)),
        Graph.from_edges(300, [(v, v + 1) for v in range(299)]),
        *(generate(FamilySpec("cycle", (n,))) for n in (300, 301)),
        *(generate(FamilySpec("complete", (n,))) for n in (3, 5, 40)),
        *(generate(FamilySpec("intersection", pt)) for pt in ((5, 2), (7, 3), (8, 3))),
    ], ids=["K1", "K2", "star3", "star4", "star300", "path300", "cycle300", "cycle301",
            "K3", "K5", "K40", "intersection5_2", "intersection7_3", "intersection8_3"])
    def test_packed_pass_equals_separate_sums(self, g):
        assert_packed_pass_equals_separate_sums(g)

    @settings(max_examples=40, deadline=None)
    @given(long_graphs())
    def test_packed_pass_equals_separate_sums_long(self, g):
        assert_packed_pass_equals_separate_sums(g)

    def test_single_edge(self):
        bundle = compute_index_bundle(K2)
        assert (bundle.s1, bundle.s2, bundle.s1_co, bundle.s2_co) == (2, 1, 0, 0)

    @pytest.mark.parametrize("g", [
        Graph(1, ((),)),
        K2,
        Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)]),
        demo_graph(),
    ], ids=["K1", "K2", "tree", "demo5"])
    def test_identity_route_equals_direct_sums(self, g):
        assert_identity_route_equals_direct_sums(g)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_n=30))
    def test_identity_route_equals_direct_sums_random(self, g):
        assert_identity_route_equals_direct_sums(g)


def assert_packed_pass_equals_separate_sums(g):
    tp = transmission_profile(g)
    bundle = compute_index_bundle(g, tp)
    edges = (bundle.s1, bundle.s2, bundle.m1, bundle.m2)
    assert edges == status_indices(g, tp) + zagreb_indices(g)
    expected = oracle_indices(g.adjacency)
    assert bundle._asdict() == {name: expected[name] for name in bundle._fields}


def assert_identity_route_equals_direct_sums(g):
    tp = transmission_profile(g)
    bundle = compute_index_bundle(g, tp)
    assert (bundle.s1_co, bundle.s2_co) == status_coindices_direct(g, tp)
    assert (bundle.m1_co, bundle.m2_co) == zagreb_coindices(g)


class TestDiam2Formulas:
    def test_five_cycle_all_four(self):
        d2 = diam2_coindex_formulas(C5)
        assert d2.s1_co_from_zagreb == 2 * 5 * 16 - 6 * 5 * 4 + 20 == 60
        assert d2.s1_co_from_zagreb_co == 2 * 4 * (20 - 10) - 20 == 60
        assert d2.s2_co_from_zagreb == 180
        assert d2.s2_co_from_zagreb_co == 180

    def test_demo_graph_confirms_worked_example(self):
        g, tp = profiled(demo_graph())
        d2 = diam2_coindex_formulas(g, tp)
        direct = status_coindices_direct(g, tp)
        assert d2.s1_co_from_zagreb == 2 * 5 * 16 - 6 * 8 * 4 + 54 == 22
        assert (d2.s1_co_from_zagreb, d2.s2_co_from_zagreb) == direct
        assert (d2.s1_co_from_zagreb_co, d2.s2_co_from_zagreb_co) == direct

    def test_rejects_large_diameter(self):
        with pytest.raises(ValueError, match="diameter"):
            diam2_coindex_formulas(P4)

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_equals_direct_when_applicable(self, g):
        tp = transmission_profile(g)
        if tp.diameter > 2:
            return
        direct = status_coindices_direct(g, tp)
        d2 = diam2_coindex_formulas(g, tp)
        assert (d2.s1_co_from_zagreb, d2.s2_co_from_zagreb) == direct
        assert (d2.s1_co_from_zagreb_co, d2.s2_co_from_zagreb_co) == direct


class TestComplementBounds:
    def test_five_cycle_equality(self):
        bounds = complement_bounds(C5)
        assert bounds.s1_lower == 4 * (20 - 10) + 20 == 60
        assert bounds.s1_actual == 60
        assert bounds.s2_lower == 16 * 5 + 4 * 20 + 20 == 180
        assert bounds.s2_actual == 180
        assert bounds.equality is True
        assert bounds.complement_diameter == 2

    def test_p4_strict(self):
        bounds = complement_bounds(P4)
        assert bounds.s1_lower == 3 * (12 - 6) + 8 == 26
        assert bounds.s1_actual == 28
        assert bounds.s2_lower == 9 * 3 + 3 * 8 + 5 == 56
        assert bounds.s2_actual == 64
        assert bounds.equality is False
        assert bounds.complement_diameter == 3

    def test_disconnected_complement_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            complement_bounds(K4)

    def test_input_graph_itself_may_be_disconnected(self):
        # the bounds only need n, m and the Zagreb co-indices of g; only
        # the complement has to be connected
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        bounds = complement_bounds(two_edges)
        assert bounds.s1_lower == 3 * (12 - 4) + 8 == 32
        assert bounds.s1_actual == 32  # complement is the 4-cycle
        assert bounds.equality

    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_bounds_hold_with_equality_iff(self, g):
        try:
            bounds = complement_bounds(g)
        except DisconnectedGraphError:
            return
        assert bounds.s1_actual >= bounds.s1_lower
        assert bounds.s2_actual >= bounds.s2_lower
        assert bounds.equality == (bounds.complement_diameter <= 2)


class TestTransmissionRegularIndices:
    def test_petersen_numbers(self):
        assert transmission_regular_indices(10, 15, 15) == (450, 3375, 900, 6750)

    def test_two_cube(self):
        assert transmission_regular_indices(4, 4, 4) == (32, 64, 16, 32)

    def test_complete_graph_coindices_vanish(self):
        n = 6
        s1, s2, s1_co, s2_co = transmission_regular_indices(n, n * (n - 1) // 2, n - 1)
        assert (s1_co, s2_co) == (0, 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            transmission_regular_indices(4, 4, 0)
        with pytest.raises(ValueError):
            transmission_regular_indices(4, 7, 3)

    def test_consistent_with_edge_sums_on_regular_graph(self):
        g, tp = profiled(C5)
        assert tp.regular_k is not None
        expected = status_indices(g, tp) + status_coindices_direct(g, tp)
        assert transmission_regular_indices(g.n, g.m, tp.regular_k) == expected

    def test_consistent_with_edge_sums_across_family_grid(self, grid_corrected):
        # each corrected value is transmission_regular_indices of the closed
        # form's (n, m, sigma), compared there with the defining sums on the
        # generated graph; a BFS sigma row (not -1) that matches, and equal
        # s1 and s1_co, which force equal n and m, make the (n, m, k)
        # arithmetic equal the defining sums on every spec
        from statusindex import default_grid

        rows = {(c.case_id, c.index_name): c for c in grid_corrected.cases}
        for spec in default_grid():
            sigma = rows[spec.label(), "sigma"]
            assert sigma.oracle != -1 and sigma.match, spec.label()
            for name in ("s1", "s2", "s1_co", "s2_co"):
                assert rows[spec.label(), name].match, (spec.label(), name)

    def test_vertex_transitive_specialization(self):
        # a vertex-transitive graph of degree d has m = n*d/2 edges
        assert transmission_regular_indices(5, 5 * 2 // 2, 6) == (60, 180, 60, 180)
        assert transmission_regular_indices(10, 10 * 3 // 2, 15) == (450, 3375, 900, 6750)
