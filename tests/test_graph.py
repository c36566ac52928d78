from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from statusindex import (
    DEFAULT_MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    GraphError,
    ParseError,
    complement,
    format_edge_list,
    parse_edge_list,
    transmission_profile,
)
from statusindex import graph as graph_module
from statusindex.verify import demo_graph, random_connected_graph

from oracles import oracle_profile

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


#: Valid and invalid edge-list lines for texts built at random.
EDGE_LIST_LINES = (
    "", "# note", "n 3", "n 0", "n x", "n 3 4", "0 1", "1 0", "1 2", "0 2", "2 3",
    " 2  4 ", "3 3", "0 1 2", "5", "-1 0", "+1 0", "01 2", "a b", "0 20000",
)


def random_graphs(max_n=10):
    """Strategy: seeded connected random graphs."""
    return st.builds(
        random_connected_graph,
        n=st.integers(2, max_n),
        edge_probability=st.sampled_from([0.2, 0.35, 0.5, 0.7, 0.9]),
        seed=st.integers(0, 10_000),
    )


class TestGraphValidation:
    def test_from_edges_builds_sorted_adjacency(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.adjacency == ((1, 2), (0,), (0,))
        assert g.m == 2
        assert g.degrees == (2, 1, 1)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(GraphError):
            Graph.from_edges(0, [])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(GraphError, match="asymmetric"):
            Graph(2, ((1,), ()))

    def test_rejects_unsorted_adjacency(self):
        with pytest.raises(GraphError, match="sorted"):
            Graph(3, ((2, 1), (0, 2), (0, 1)))

    def test_from_edges_names_the_duplicate_edge(self):
        with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
            Graph.from_edges(3, [(0, 1), (1, 2), (1, 0)])

    def test_constructor_names_the_equal_pair(self):
        with pytest.raises(GraphError, match=r"^duplicate edge \(1, 2\)"):
            Graph(3, ((1, 2), (0, 2, 2), (0, 1, 1)))

    @pytest.mark.parametrize("edges", [[(-1, 0)], [(0, -1)], [(-2, 0)], [(0, 1), (-1, -2)]])
    def test_from_edges_rejects_negative_id(self, edges):
        # a negative id must not wrap around to another vertex's row
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edges(2, edges)

    @pytest.mark.parametrize(
        "n, adjacency, message",
        [
            (0, (), "positive"),
            (2, ((1,),), "rows"),
            (2, ((-1,), ()), "out of range"),
            (2, ((2,), ()), "out of range"),
            (2, ((0, 1), (0,)), "self-loop"),
            (2, ((1, 1), (0,)), "sorted"),
            (3, ((1,), (0, 2), ()), "asymmetric"),
            (3, ((1, 2), (0,), ()), "asymmetric"),
        ],
    )
    def test_constructor_rejects(self, n, adjacency, message):
        with pytest.raises(GraphError, match=message):
            Graph(n, adjacency)

    def test_edges_and_non_edges_partition_pairs(self):
        g = demo_graph()
        edges = set(g.edges())
        non_edges = set(g.non_edges())
        assert edges == {(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)}
        assert non_edges == {(0, 3), (1, 3)}


class TestParseEdgeList:
    def test_smallest_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == P3

    def test_demo_fixture_text(self, demo5_path):
        g = parse_edge_list(demo5_path.read_text())
        assert g.n == 5
        assert g.m == 8
        assert g == demo_graph()

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_edge_list("0 0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list("0 1\n1 0")

    def test_header_sets_vertex_count(self):
        g = parse_edge_list("n 4\n0 1\n2 3")
        assert g.n == 4

    def test_id_beyond_header_rejected(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_edge_list("n 2\n0 2")

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a path\n\n0 1\n\n# tail\n1 2\n")
        assert g == P3

    def test_no_edges_no_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("# nothing\n")

    def test_header_without_edges_parses_but_is_disconnected(self):
        g = parse_edge_list("n 3\n")
        assert g.n == 3 and g.m == 0
        with pytest.raises(DisconnectedGraphError):
            transmission_profile(g)

    def test_malformed_lines_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1 2")
        with pytest.raises(ParseError):
            parse_edge_list("a b")
        with pytest.raises(ParseError):
            parse_edge_list("-1 0")
        with pytest.raises(ParseError):
            parse_edge_list("n x")

    def test_vertex_cap_checked_before_allocation(self):
        with pytest.raises(ParseError, match="cap"):
            parse_edge_list(f"n {DEFAULT_MAX_VERTICES + 1}\n0 1\n")
        with pytest.raises(ParseError, match="cap"):
            parse_edge_list(f"0 {DEFAULT_MAX_VERTICES}\n")
        assert parse_edge_list(f"n {DEFAULT_MAX_VERTICES}\n0 1\n").n == DEFAULT_MAX_VERTICES

    @pytest.mark.parametrize(
        "text, line",
        [("0 1\n1 2\n\n# again\n2 1\n", 5), ("n 3\n0 1\n1 0\n0 2\n0 1\n", 3)],
    )
    def test_duplicate_edge_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: duplicate edge"):
            parse_edge_list(text)

    def test_self_loop_names_its_line(self):
        with pytest.raises(ParseError, match="line 3: self-loop 2 2"):
            parse_edge_list("0 1\n1 2\n2 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "1_0 +2\n",
            "+1 0\n",
            "\u0661 0\n",
            "0 1\n1 \uff12\n",
            "0 " + "9" * 5000 + "\n",
            "n 1_0\n0 1\n",
            "n +3\n0 1\n",
            "n \u0663\n0 1\n",
        ],
    )
    def test_ids_and_header_are_ascii_digits_only(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)

    def test_leading_zeros_are_ascii_digits(self):
        assert parse_edge_list("n 03\n00 1\n01 2\n") == P3
        assert parse_edge_list("00 1\n01 2\n") == P3

    def test_format_round_trip_is_canonical(self):
        g = parse_edge_list("2 0\n0 1")
        text = format_edge_list(g)
        assert text == "n 3\n0 1\n0 2\n"
        assert parse_edge_list(text) == g

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_parse_inverts_format(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(EDGE_LIST_LINES), max_size=8))
    def test_every_error_names_a_line_of_the_text(self, lines):
        text = "\n".join(lines)
        try:
            parse_edge_list(text)
        except ParseError as exc:
            message = str(exc)
            if "vertex count unknown" in message:
                assert all(not line.strip() or line.strip()[0] == "#" for line in lines)
                return
            match = re.match(r"line (\d+): ", message)
            assert match, message
            assert 1 <= int(match.group(1)) <= len(lines)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("n 2\n0 2", 2, r"edge \(0, 2\) exceeds declared vertex count 2"),
            ("0 20000\n", 1, "vertex id 20000 exceeds the cap"),
            ("0 1\n# c\n1 2\n0 30000\n", 4, "vertex id 30000 exceeds the cap"),
        ],
    )
    def test_range_errors_name_their_line(self, text, line, message):
        with pytest.raises(ParseError, match=f"^line {line}: {message}"):
            parse_edge_list(text)

    def test_line_errors_come_before_duplicate_edges(self):
        with pytest.raises(ParseError, match="^line 3: expected"):
            parse_edge_list("0 1\n1 0\n0 1 2\n")

    def test_header_only_on_the_first_content_line(self):
        assert parse_edge_list("# c\n\nn 3\n0 1\n1 2\n") == P3
        with pytest.raises(ParseError, match="^line 2: non-integer"):
            parse_edge_list("0 1\nn 3\n1 2\n")


class TestComplement:
    def test_complete_graph_complement_is_empty(self):
        gbar = complement(K4)
        assert gbar.m == 0 and gbar.n == 4
        with pytest.raises(DisconnectedGraphError):
            transmission_profile(gbar)

    def test_p4_complement_by_hand(self):
        gbar = complement(P4)
        assert set(gbar.edges()) == {(0, 2), (0, 3), (1, 3)}

    def test_c5_self_complementary(self):
        gbar = complement(C5)
        # 2-regular and connected on 5 vertices: necessarily a 5-cycle
        assert gbar.degrees == (2, 2, 2, 2, 2)
        assert transmission_profile(gbar).regular_k == 6

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestTransmissionProfile:
    def test_demo_graph_profile(self):
        tp = transmission_profile(demo_graph())
        assert tp.sigma == (5, 5, 4, 6, 4)
        assert tp.wiener == 12
        assert tp.diameter == 2
        assert tp.regular_k is None

    def test_five_cycle(self):
        tp = transmission_profile(C5)
        assert tp.sigma == (6,) * 5
        assert tp.wiener == 15
        assert tp.regular_k == 6

    def test_four_cycle_is_two_cube(self):
        tp = transmission_profile(C4)
        assert tp.sigma == (4,) * 4
        assert tp.wiener == 8
        assert tp.regular_k == 4

    def test_single_vertex(self):
        tp = transmission_profile(Graph(1, ((),)))
        assert tp.sigma == (0,) and tp.wiener == 0 and tp.diameter == 0
        assert tp.regular_k == 0

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            transmission_profile(g)

    @pytest.mark.parametrize("block", [3, graph_module.SOURCE_BLOCK])
    @settings(max_examples=40, deadline=None)
    @given(g=random_graphs(max_n=60))
    def test_engine_matches_floyd_warshall(self, block, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "SOURCE_BLOCK", block)
            tp = transmission_profile(g)
        assert (list(tp.sigma), tp.wiener, tp.diameter) == oracle_profile(g.adjacency)

    @pytest.mark.parametrize("block", [3, graph_module.SOURCE_BLOCK])
    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(random_graphs(max_n=12), min_size=2, max_size=3))
    def test_engine_rejects_disconnected(self, block, parts):
        # disjoint union: later parts are shifted past the earlier ones
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges()]
            offset += part.n
        g = Graph.from_edges(offset, edges)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "SOURCE_BLOCK", block)
            with pytest.raises(DisconnectedGraphError):
                transmission_profile(g)

    def test_block_size_does_not_change_result(self, monkeypatch):
        g = random_connected_graph(40, 0.1, seed=5)
        whole = transmission_profile(g)
        monkeypatch.setattr(graph_module, "SOURCE_BLOCK", 7)
        assert transmission_profile(g) == whole

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_total_transmission_is_twice_wiener(self, g):
        tp = transmission_profile(g)
        assert sum(tp.sigma) == 2 * tp.wiener
        assert all(s >= g.n - 1 for s in tp.sigma)
        if len(set(tp.sigma)) == 1:
            assert tp.regular_k == tp.sigma[0]
        else:
            assert tp.regular_k is None

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=8))
    def test_matches_oracle(self, g):
        sigma, wiener, diameter = oracle_profile(g.adjacency)
        tp = transmission_profile(g)
        assert list(tp.sigma) == sigma
        assert tp.wiener == wiener
        assert tp.diameter == diameter

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_diameter_two_transmission_shortcut(self, g):
        tp = transmission_profile(g)
        if tp.diameter <= 2:
            for u in range(g.n):
                assert tp.sigma[u] == 2 * g.n - 2 - g.degrees[u]
