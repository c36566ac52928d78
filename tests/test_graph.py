from __future__ import annotations

import copy
import io
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from statusindex import (
    DEFAULT_MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    GraphError,
    ParseError,
    format_edge_list,
    parse_edge_list,
    transmission_profile,
)
from statusindex import graph as graph_module
from statusindex.cli import _read_graph, main
from statusindex.verify import demo_graph, random_connected_graph

from conftest import long_graphs
from oracles import complement, oracle_profile, reference_parse

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


#: Lines mixed into generated edge-list texts: blanks and comments, then
#: a late header and lines with a bad field, id, range or separator.
BLANK_LINES = ("", "   ", "# comment", "# 0 1", "#0 1")
NOISE_LINES = (
    "n 3", "n", "3 3", "0 20000", "0 9", "-1 0", "+1 0", "a b", "0 1 2",
    "0\x0b1\x0b2", "1\u20282", "2\x1c3", "01 2", "1\x0b0",
)


@st.composite
def edge_list_texts(draw):
    """Strategy: edge-list texts around a random simple graph, with noise
    lines, a header or none, a repeated edge in either orientation, and
    mixed ``\\n``, ``\\r\\n`` and lone ``\\r`` line ends."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        unique_by=frozenset, max_size=12,
    ))
    separators = st.sampled_from([" ", "\t", "  ", "\x0b", "\x1c", "\u2028"])
    lines = [f"{u}{draw(separators)}{v}" for u, v in pairs]
    extra = ((BLANK_LINES, st.integers(0, 4)), (NOISE_LINES, st.sampled_from([0, 0, 1, 2])))
    for kind, count in extra:
        for _ in range(draw(count)):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(kind)))
    if pairs and draw(st.booleans()):
        u, v = draw(st.sampled_from(pairs))
        padding = draw(st.lists(st.sampled_from(["", "# pad"]), max_size=4))
        lines += [*padding, f"{v} {u}" if draw(st.booleans()) else f"{u} {v}"]
    good = st.sampled_from([None, n, n + 2])
    header = draw(st.one_of(good, good, st.sampled_from([n - 1, 0, 20_001, "x", "3 4"])))
    if header is not None:
        at = st.one_of(st.just(0), st.just(0), st.integers(0, len(lines)))
        lines.insert(draw(at), f"n {header}")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


def assert_file_reads_like_the_text(path, text):
    """``_read_graph`` on ``text`` written unchanged to ``path`` gives
    the graph, or the error text, that ``parse_edge_list(text)`` gives."""
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = parse_edge_list(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _read_graph(str(path))
        assert str(info.value) == str(exc)
    else:
        assert _read_graph(str(path)) == expected


def random_graphs(max_n=10):
    """Strategy: seeded connected random graphs."""
    return st.builds(
        random_connected_graph,
        n=st.integers(2, max_n),
        edge_probability=st.sampled_from([0.2, 0.35, 0.5, 0.7, 0.9]),
        seed=st.integers(0, 10_000),
    )


def lollipop(clique, tail):
    """K_clique with a path of ``tail`` vertices hung from clique vertex 0."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(0, clique)] + [(v, v + 1) for v in range(clique, clique + tail - 1)]
    return Graph.from_edges(clique + tail, edges)


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

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            (((), (0, 2), (1,)), "1->0 without 0->1"),
            (((1,), (2,), (1,)), "0->1 without 1->0"),
            (((1, 2), (0,), ()), "0->2 without 2->0"),
        ],
        ids=("missing-above-the-diagonal", "missing-below-the-diagonal", "listed-empty-row"),
    )
    def test_lower_triangle_check_names_the_missing_entry(self, adjacency, message):
        with pytest.raises(GraphError, match=f"^asymmetric adjacency: {message}$"):
            Graph(3, adjacency)

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=40), st.data())
    def test_one_directed_entry_off_is_asymmetric(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.sampled_from([w for w in range(g.n) if w != u]))
        row = set(g.adjacency[u])
        if v in row:
            row.remove(v)
            message = f"{v}->{u} without {u}->{v}"
        else:
            row.add(v)
            message = f"{u}->{v} without {v}->{u}"
        rows = list(g.adjacency)
        rows[u] = tuple(sorted(row))
        with pytest.raises(GraphError, match=f"^asymmetric adjacency: {message}$"):
            Graph(g.n, tuple(rows))

    def test_list_rows_are_validated_too(self):
        assert Graph(3, [[1], [0, 2], [1]]).degrees == (1, 2, 1)
        with pytest.raises(GraphError, match="^asymmetric adjacency: 1->2 without 2->1$"):
            Graph(3, [[1], [0, 2], []])

    def test_list_rows_are_stored_as_tuples(self):
        rows = [[1], [0, 2], [1]]
        g = Graph(3, rows)
        assert hash(g) == hash(P3) and g == P3
        assert all(type(row) is tuple for row in g.adjacency)
        for row in rows:
            row.append(2)  # the caller's lists are not the graph's rows
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert (g.degrees, g.m) == ((1, 2, 1), 2)
        # a tuple row is kept as the same object, not copied
        assert all(a is b for a, b in zip(Graph(3, g.adjacency).adjacency, g.adjacency))

    def test_every_route_runs_the_validator(self, monkeypatch):
        calls = []
        validate = Graph.__post_init__

        def counted(g):
            calls.append(g.n)
            validate(g)

        monkeypatch.setattr(Graph, "__post_init__", counted)
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert Graph(3, ((1,), (0, 2), (1,))) == g
        for rebuilt in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert rebuilt == g and rebuilt is not g
        assert calls == [3] * 5
        assert not any(hasattr(g, name) for name in ("_make", "_replace", "__dict__"))

    def test_fields_are_read_only(self):
        g = Graph.from_edges(2, [(0, 1)])
        for name in ("n", "adjacency", "degrees", "m", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, ((0,), ()))
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g == Graph(2, ((1,), (0,))) and g.degrees == (1, 1) and g.m == 1

    def test_equality_hash_and_repr(self):
        assert P4 == Graph.from_edges(4, [(2, 3), (1, 2), (0, 1)])
        assert P4 != C4
        assert P3 != (3, P3.adjacency)
        assert len({P3, Graph.from_edges(3, [(0, 1), (1, 2)]), P4}) == 2
        assert repr(P3) == "Graph(n=3, adjacency=((1,), (0, 2), (1,)))"

    def test_edges_and_non_edges_partition_pairs(self):
        g = demo_graph()
        edges = set(g.edges())
        assert edges == {(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)}
        assert set(complement(g).edges()) == {(0, 3), (1, 3)}


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
        [
            ("0 1\n1 2\n\n# again\n2 1\n", 5),
            ("n 3\n0 1\n1 0\n0 2\n0 1\n", 3),
            ("0 1\n# 0 1\n1 0\n", 3),
            ("5 3\n0 1\n# c\n\n1 2\n3 5\n", 6),
        ],
    )
    def test_duplicate_edge_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: duplicate edge"):
            parse_edge_list(text)

    def test_two_repeated_edges_name_the_earlier_repeat(self):
        # (0, 1) is the least repeated pair, but (1, 2) is repeated first
        text = "0 1\n1 2\n2 3\n2 1\n1 0\n"
        with pytest.raises(ParseError, match="^line 4: duplicate edge 2 1$"):
            parse_edge_list(text)
        with pytest.raises(ParseError, match="^line 4: duplicate edge 1 0$"):
            parse_edge_list("0 1\n1 2\n2 3\n1 0\n2 1\n")

    def test_duplicate_edge_is_named_from_where_the_parse_started(self, tmp_path):
        # the caller has read two lines, one of them the edge "2 1", so
        # the lines count from "n 3" and the repeat is the last "2 1"
        text = "my preamble\n2 1\nn 3\n0 1\n1 2\n2 1\n"
        path = tmp_path / "preamble.edges"
        path.write_text(text)
        with path.open() as handle:
            for stream in (io.StringIO(text), handle):
                stream.readline()
                stream.readline()
                with pytest.raises(ParseError, match="^line 4: duplicate edge 2 1$"):
                    parse_edge_list(stream)

    def test_duplicate_far_from_its_edge_names_its_line(self):
        text = "".join(f"{i} {i + 1}\n" for i in range(10_000)) + "1 0\n"
        with pytest.raises(ParseError, match="^line 10001: duplicate edge 1 0$"):
            parse_edge_list(text)

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_agrees_with_the_reference_parser(self, text):
        try:
            expected = reference_parse(text)
        except ValueError as exc:
            with pytest.raises(ParseError) as info:
                parse_edge_list(text)
            assert str(info.value).startswith(str(exc))
        else:
            assert parse_edge_list(text) == expected

    @settings(max_examples=300, deadline=None)
    @given(text=edge_list_texts())
    def test_file_reads_like_the_text(self, tmp_path_factory, text):
        assert_file_reads_like_the_text(tmp_path_factory.getbasetemp() / "g.edges", text)

    @pytest.mark.parametrize(
        "text",
        [
            "0 1\r1 2\r",
            "n 3\r\n0 1\r\n\r\n# c\r\n1 2\r\n",
            "0 1\r\n1 2\r1 0\n",
            "0 1\n0\x0b1\x0b2\n",
            "0 1\n1\u20282\n",
            "0 1\r1 2\r\r# c\r2 1\r",
            "".join(f"{i} {i + 1}\r\n" for i in range(10_000)) + "1 0\r\n",
            # a \r\n across the decoder's 8192-byte chunks ends one line
            "# " + "x" * 8189 + "\r\n0 0\r\n",
        ],
        ids=("cr", "crlf", "mixed-duplicate", "vertical-tab", "line-separator",
             "cr-duplicate", "far-duplicate", "crlf-across-chunks"),
    )
    def test_file_line_ends_and_errors_match_the_text(self, tmp_path, text):
        assert_file_reads_like_the_text(tmp_path / "g.edges", text)

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

    @pytest.mark.parametrize("text", ["0 1\r\n1 2\r\n", "0 1\r1 2\r", "# c\r\n0 1\r1 2\n"])
    def test_crlf_and_cr_end_lines(self, text):
        assert parse_edge_list(text) == P3

    def test_cr_lines_are_counted(self):
        with pytest.raises(ParseError, match="^line 2: self-loop"):
            parse_edge_list("0 1\r1 1\r")

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, separator):
        with pytest.raises(ParseError, match="^line 1: expected"):
            parse_edge_list(f"0 1{separator}1 1\n")

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


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadMemory:
    """Reading and validating the generated intersection(12,4) (495
    vertices, 104,940 edges) take memory in proportion to its adjacency
    tuples, not to its file."""

    @pytest.fixture(scope="class")
    def dense_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dense") / "intersection-12-4.edges"
        argv = ["generate", "--family", "intersection", "--p", "12", "--t", "4"]
        assert main([*argv, "--output", str(path)]) == 0
        return str(path)

    @staticmethod
    def adjacency_size(g):
        return sys.getsizeof(g.adjacency) + sum(map(sys.getsizeof, g.adjacency))

    def test_read_peaks_near_the_adjacency(self, dense_path):
        g, peak = traced_peak(_read_graph, dense_path)
        assert peak <= 1.6 * self.adjacency_size(g)

    @pytest.mark.skipif(not Path("/dev/fd").is_dir() or shutil.which("cat") is None,
                        reason="needs /dev/fd and cat")
    def test_piped_read_peaks_near_the_adjacency(self, tmp_path):
        # a pipe is spooled to a temporary file and parsed as one, so it
        # is held to the bound of a file, not read whole as text
        path = tmp_path / "intersection-13-4.edges"
        argv = ["generate", "--family", "intersection", "--p", "13", "--t", "4"]
        assert main([*argv, "--output", str(path)]) == 0
        with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
            g, peak = traced_peak(_read_graph, f"/dev/fd/{cat.stdout.fileno()}")
        assert g == _read_graph(str(path))
        assert peak <= 1.6 * self.adjacency_size(g)

    def test_naming_a_repeated_edge_adds_no_memory(self, dense_path, tmp_path):
        # the lines are read again keeping only the repeated pairs, not
        # every edge read before the repeat; 20,000 edges keep the traced
        # second pass short
        lines = Path(dense_path).read_text().splitlines(keepends=True)[:20_001]
        clean, repeat = tmp_path / "clean.edges", tmp_path / "repeat.edges"
        clean.write_text("".join(lines))
        repeat.write_text("".join(lines) + lines[1])

        def read():
            with pytest.raises(ParseError, match="^line 20002: duplicate edge"):
                _read_graph(str(repeat))

        _, expected = traced_peak(_read_graph, str(clean))
        _, peak = traced_peak(read)
        assert peak <= expected

    def test_validation_peaks_below_half_the_adjacency(self, dense_path):
        g = _read_graph(dense_path)
        _, peak = traced_peak(Graph, g.n, g.adjacency)
        assert peak <= 0.5 * self.adjacency_size(g)

    def test_padded_ids_add_no_memory(self, dense_path, tmp_path):
        # "007" is read as 7, but kept neither as a key nor as a new int
        g = Graph.from_edges(495, list(_read_graph(dense_path).edges())[:10_000])
        canonical, padded = tmp_path / "canonical.edges", tmp_path / "padded.edges"
        canonical.write_text(format_edge_list(g))
        padded.write_text(f"n {g.n}\n" + "".join(
            f"{'0' * (i % 40)}{u} {'0' * (i % 41)}{v}\n" for i, (u, v) in enumerate(g.edges())
        ))
        _, expected = traced_peak(_read_graph, str(canonical))
        h, peak = traced_peak(_read_graph, str(padded))
        assert h == g
        assert peak <= 1.1 * expected


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

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_complement_rows_match_the_oracle(self, g):
        rows = graph_module.complement_rows(g)
        assert tuple(map(tuple, rows)) == complement(g).adjacency

    def test_complement_rows_refuse_above_the_edge_cap(self):
        # C2002 has the fewest vertices of the cycles whose complement,
        # 2002 * 2001 / 2 - 2002 edges, is above the cap
        c2002 = Graph.from_edges(2002, [(v, (v + 1) % 2002) for v in range(2002)])
        with pytest.raises(GraphError, match="^the complement has 2000999 edges, "
                                             "more than the cap of 2000000$"):
            graph_module.complement_rows(c2002)


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

    # Past level 2 the engine runs only the unfinished vertices, on their
    # split rows; random_graphs rarely gets there, these graphs do.
    @pytest.mark.parametrize("block", [3, graph_module.SOURCE_BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(g=long_graphs())
    def test_long_diameter_engine_matches_floyd_warshall(self, block, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "SOURCE_BLOCK", block)
            tp = transmission_profile(g)
        assert (list(tp.sigma), tp.wiener, tp.diameter) == oracle_profile(g.adjacency)

    @pytest.mark.parametrize("block", [7, graph_module.SOURCE_BLOCK])
    def test_dense_rows_past_level_two(self, block, monkeypatch):
        # the clique's rows are unfinished after level 2 and are split
        monkeypatch.setattr(graph_module, "SOURCE_BLOCK", block)
        g = lollipop(8, 20)
        tp = transmission_profile(g)
        assert (list(tp.sigma), tp.wiener, tp.diameter) == oracle_profile(g.adjacency)
        assert tp.diameter == 21

    @pytest.mark.parametrize("block", [7, graph_module.SOURCE_BLOCK])
    @pytest.mark.parametrize(("n", "edges"), [
        (50, [(v, v + 1) for v in range(19)] + [(v, v + 1) for v in range(20, 49)]),
        (31, [(v, (v + 1) % 30) for v in range(30)]),  # vertex 30 is isolated
    ], ids=["two-paths", "isolated-beside-a-cycle"])
    def test_disconnection_found_after_level_two(self, block, n, edges, monkeypatch):
        monkeypatch.setattr(graph_module, "SOURCE_BLOCK", block)
        g = Graph.from_edges(n, edges)
        with pytest.raises(DisconnectedGraphError) as check:
            graph_module.check_connected(g)
        with pytest.raises(DisconnectedGraphError) as engine:
            transmission_profile(g)
        assert str(engine.value) == str(check.value)

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

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(random_graphs(max_n=12), min_size=1, max_size=3), data=st.data())
    def test_connectivity_check_agrees_with_the_engine(self, parts, data):
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges()]
            offset += part.n
        label = data.draw(st.permutations(range(offset)))  # vertex 0 in any part
        g = Graph.from_edges(offset, [(label[u], label[v]) for u, v in edges])
        if len(parts) == 1:
            graph_module.check_connected(g)
            return
        with pytest.raises(DisconnectedGraphError) as engine:
            transmission_profile(g)
        with pytest.raises(DisconnectedGraphError) as check:
            graph_module.check_connected(g)
        assert str(check.value) == str(engine.value)

    def test_connectivity_check_on_edgeless_graphs(self):
        graph_module.check_connected(Graph(1, ((),)))
        with pytest.raises(DisconnectedGraphError):
            graph_module.check_connected(Graph(2, ((), ())))

    # Exact closed forms, no Floyd-Warshall: vertices finish at different
    # levels, diameters run long, and a block of 7 sources puts block
    # boundaries inside each graph.
    @pytest.fixture(params=[7, graph_module.SOURCE_BLOCK])
    def source_block(self, request, monkeypatch):
        monkeypatch.setattr(graph_module, "SOURCE_BLOCK", request.param)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 29, 150])
    def test_path_closed_form(self, source_block, n):
        tp = transmission_profile(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
        assert tp.sigma == tuple((i * (i + 1) + (n - 1 - i) * (n - i)) // 2 for i in range(n))
        assert tp.diameter == n - 1
        assert tp.wiener == n * (n - 1) * (n + 1) // 6

    @pytest.mark.parametrize("n", [3, 8, 29, 150])
    def test_star_closed_form(self, source_block, n):
        centre = n // 2
        g = Graph.from_edges(n, [(centre, v) for v in range(n) if v != centre])
        tp = transmission_profile(g)
        assert tp.sigma == tuple(n - 1 if v == centre else 2 * n - 3 for v in range(n))
        assert tp.diameter == 2
        assert tp.regular_k is None

    @pytest.mark.parametrize("n", [3, 4, 8, 29, 150])
    def test_cycle_closed_form(self, source_block, n):
        tp = transmission_profile(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
        assert tp.sigma == (n * n // 4,) * n
        assert tp.diameter == n // 2
        assert tp.regular_k == n * n // 4

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 29])
    def test_complete_closed_form(self, source_block, n):
        tp = transmission_profile(
            Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        )
        assert tp.sigma == (n - 1,) * n
        assert tp.diameter == min(n - 1, 1)
        assert tp.regular_k == n - 1

    @pytest.mark.parametrize("isolated", [0, 30])
    def test_isolated_vertex_beside_a_path_rejected(self, source_block, isolated):
        path = [v for v in range(31) if v != isolated]
        g = Graph.from_edges(31, zip(path, path[1:]))
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
