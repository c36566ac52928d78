from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from statusindex import (
    DEFAULT_SEED,
    VerificationCase,
    VerificationReport,
    closed_forms_for,
    default_grid,
    verify_random_suite,
)
from statusindex import cli, closed_forms, graph, indices, verify
from statusindex.cli import main
from statusindex.families import FAMILIES

try:
    import resource
except ImportError:  # not on every platform
    resource = None

#: Integers ``int()`` reads but the command line rejects: an underscore,
#: a plus sign, Arabic-Indic digits, a blank.
NON_ASCII_INTEGERS = ("1_0", "+3", "\u0661\u0660", " 3")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_512_mb(*argv):
    """Run the command in a child process limited to 512 MB of address
    space; returns its CompletedProcess and the seconds it took."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "statusindex", *argv],
                            capture_output=True, text=True, preexec_fn=limit_memory)
    return result, time.perf_counter() - start


class TestCompute:
    def test_demo_fixture_text(self, capsys, demo5_path):
        code, out, _ = run(capsys, "compute", str(demo5_path))
        assert code == 0
        assert "s1: 74" in out
        assert "s2: 169" in out
        assert "s1_co: 22" in out
        assert "s2_co: 60" in out

    def test_demo_fixture_json_schema(self, capsys, demo5_path):
        code, out, _ = run(capsys, "compute", str(demo5_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "n", "m", "diameter", "wiener", "transmission", "transmission_regular_k",
            "s1", "s2", "s1_co", "s2_co", "m1", "m2", "m1_co", "m2_co",
        }
        assert payload["transmission"] == [5, 5, 4, 6, 4]
        assert payload["transmission_regular_k"] is None
        assert payload["wiener"] == 12

    def test_single_edge(self, capsys, tmp_path):
        path = tmp_path / "k2.edges"
        path.write_text("0 1\n")
        code, out, _ = run(capsys, "compute", str(path), "--json")
        payload = json.loads(out)
        assert (payload["s1"], payload["s2"]) == (2, 1)
        assert (payload["s1_co"], payload["s2_co"]) == (0, 0)

    def test_p3_fixture(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("0 1\n1 2\n")
        code, out, _ = run(capsys, "compute", str(path), "--json")
        payload = json.loads(out)
        assert (payload["s1"], payload["s2"]) == (10, 12)
        assert (payload["s1_co"], payload["s2_co"]) == (6, 9)

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 0\n")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2
        assert "self-loop" in err

    @pytest.mark.parametrize("text", ["1_0 +2\n", "n \u0663\n0 1\n"])
    def test_non_ascii_digit_ids_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.edges"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "compute", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1:")

    def test_disconnected_exits_2(self, capsys, tmp_path):
        path = tmp_path / "split.edges"
        path.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2
        assert "connected" in err

    @pytest.mark.parametrize("command", ("compute", "identities"))
    def test_disconnected_exits_2_before_the_engine(self, capsys, tmp_path, monkeypatch,
                                                   command):
        # two disjoint 1000-cycles: the engine would run 500 levels first
        def unreachable(rows):
            raise AssertionError("distances computed")

        path = tmp_path / "two-cycles.edges"
        path.write_text("".join(f"{u} {(u + 1) % 1000}\n{u + 1000} {(u + 1) % 1000 + 1000}\n"
                                for u in range(1000)))
        monkeypatch.setattr(graph, "profile_from_rows", unreachable)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: graph is disconnected; indices need a connected graph\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", str(tmp_path / "absent.edges"))
        assert code == 2

    def test_vertex_cap_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.edges"
        path.write_text("n 20001\n0 1\n")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 2
        assert "cap" in err

    def test_duplicate_edge_exits_2_under_optimize(self, tmp_path):
        # the duplicate check is the graph's validation, not an assert
        path = tmp_path / "twice.edges"
        path.write_text("n 3\n0 1\n1 2\n\n2 1\n")
        result = subprocess.run(
            [sys.executable, "-O", "-m", "statusindex", "compute", str(path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: line 5: duplicate edge 2 1\n"

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_piped_duplicate_names_its_line(self, demo5_path):
        # a pipe cannot be read twice, so it is read whole as text
        def compute(text):
            return subprocess.run(
                [sys.executable, "-m", "statusindex", "compute", "/dev/stdin"],
                input=text, capture_output=True, text=True,
            )

        result = compute("n 3\n0 1\n1 2\n1 0\n")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: line 4: duplicate edge 1 0\n"
        result = compute(demo5_path.read_text())
        assert (result.returncode, result.stderr) == (0, "")
        assert "s1: 74" in result.stdout

    def test_invalid_utf8_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes(b"0 1\n# caf\xe9\n1 2\n")
        code, out, err = run(capsys, "compute", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9 in position ")
        assert "Traceback" not in err

    def test_line_error_before_a_bad_byte_comes_first(self, capsys, tmp_path):
        # the file is decoded as it is read, 8192 bytes at a time, so a
        # line in an earlier chunk than the bad byte is checked first
        path = tmp_path / "late.edges"
        path.write_bytes(b"0 1\n1 1\n" + b"# padding\n" * 1000 + b"\xff\n")
        code, out, err = run(capsys, "compute", str(path))
        assert (code, out, err) == (2, "", "error: line 2: self-loop 1 1\n")
        path.write_bytes(b"0 1\n1 2\n" + b"# padding\n" * 1000 + b"\xff\n")
        code, out, err = run(capsys, "compute", str(path))
        assert code == 2
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")

    def test_internal_error_exits_3(self, capsys, demo5_path, monkeypatch):
        def broken(g, tp):
            raise ArithmeticError("total transmission must be even")

        monkeypatch.setattr(indices, "compute_index_bundle", broken)
        code, out, err = run(capsys, "compute", str(demo5_path))
        assert code == 3
        assert out == ""
        assert "internal error: total transmission must be even" in err
        assert "Traceback" in err

    def test_internal_error_exits_3_without_an_import(self, capsys, demo5_path, monkeypatch):
        # after a MemoryError an import can fail again, and so can printing;
        # neither may turn exit 3 into another code
        def exhausted(g, tp):
            raise MemoryError

        monkeypatch.setattr(indices, "compute_index_bundle", exhausted)
        monkeypatch.setitem(sys.modules, "traceback", None)
        code, out, err = run(capsys, "compute", str(demo5_path))
        assert (code, out) == (3, "")
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("MemoryError\ninternal error: \n")

        class Unwritable(io.StringIO):
            def write(self, text):
                raise MemoryError

        monkeypatch.setattr(sys, "stderr", Unwritable())
        assert main(["compute", str(demo5_path)]) == 3


class TestGenerate:
    def test_hypercube_2(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "hypercube", "--n", "2")
        assert code == 0
        assert out == "n 4\n0 1\n0 2\n1 3\n2 3\n"

    def test_kneser_counts(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "kneser", "--p", "5", "--k", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n 10"
        assert len(lines) - 1 == 15

    def test_to_file_and_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        run(capsys, "generate", "--family", "nanotorus", "--p", "4", "--q", "4", "-o", str(a))
        run(capsys, "generate", "--family", "nanotorus", "--p", "4", "--q", "4", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_odd_nanotorus_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "nanotorus", "--p", "3", "--q", "2")
        assert code == 2
        assert "even" in err

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "kneser", "--p", "5")
        assert code == 2
        assert "--k" in err

    def test_vertex_cap(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "hypercube", "--n", "15")
        assert code == 2
        assert err == "error: hypercube(n=15) has more vertices than the cap of 20000\n"

    def test_round_trip_matches_closed_forms(self, capsys, tmp_path):
        for family, flags, expected in (
            ("kneser", ["--p", "5", "--k", "2"],
             {"s1": 450, "s2": 3375, "s1_co": 900, "s2_co": 6750}),
            ("intersection", ["--p", "4", "--t", "2"],
             {"s1": 144, "s2": 432, "s1_co": 36, "s2_co": 108}),
            ("hypercube", ["--n", "2"],
             {"s1": 32, "s2": 64, "s1_co": 16, "s2_co": 32}),
            ("nanotorus", ["--p", "2", "--q", "4"],
             {"s1": 288, "s2": 1728, "s1_co": 384, "s2_co": 2304}),
        ):
            path = tmp_path / f"{family}.edges"
            run(capsys, "generate", "--family", family, *flags, "-o", str(path))
            _, out, _ = run(capsys, "compute", str(path), "--json")
            payload = json.loads(out)
            for name, value in expected.items():
                assert payload[name] == value, (family, name)

    def test_foreign_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "--family", "hypercube",
                           "--n", "2", "--p", "5")
        assert code == 2
        assert "--p" in err

    @pytest.mark.parametrize("value", NON_ASCII_INTEGERS)
    def test_parameter_takes_ascii_digits_only(self, capsys, value):
        code, out, err = run(capsys, "generate", "--family", "hypercube", "--n", value)
        assert code == 2
        assert out == ""
        assert f"invalid integer {value!r}" in err

    @pytest.mark.parametrize("command", ("generate", "verify"))
    def test_max_vertices_is_not_an_option(self, capsys, command):
        # one vertex cap for every graph: no command can raise it
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "hypercube", "--n", "2", "--max-vertices", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-vertices 4" in captured.err


@pytest.fixture
def digit_limit():
    """Python's default limit of 4300 digits for int-to-text conversion."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestClosedForm:
    @pytest.mark.parametrize("value", NON_ASCII_INTEGERS)
    def test_parameter_takes_ascii_digits_only(self, capsys, value):
        code, out, err = run(capsys, "closed-form", "--family", "kneser",
                             "--p", value, "--k", "2")
        assert code == 2
        assert out == ""
        assert f"invalid integer {value!r}" in err

    def test_kneser_above_the_vertex_cap(self, capsys):
        # pure arithmetic: no graph is built, so the vertex cap does not apply
        code, out, _ = run(capsys, "closed-form", "--family", "kneser",
                           "--p", "40", "--k", "5")
        assert code == 0
        assert "n: 658008\n" in out

    def test_corrected_hypercube(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "hypercube", "--n", "2")
        assert code == 0
        assert "s1_co: 16" in out

    def test_as_printed_hypercube_shows_errata(self, capsys):
        # the published value stands beside the corrected one on its line
        code, out, _ = run(capsys, "closed-form", "--family", "hypercube", "--n", "2")
        assert code == 0
        assert "s1_co: 16  (erratum: as printed -16)\n" in out
        assert "s2_co: 32  (erratum: as printed 80)\n" in out
        assert "s1: 32\n" in out

    def test_intersection_values(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "intersection",
                           "--p", "4", "--t", "2")
        assert code == 0
        assert "s1: 144" in out

    def test_kneser_computes_wiener_by_bfs(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "kneser",
                           "--p", "5", "--k", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["wiener"] == 75
        assert payload["indices"]["s2_co"]["corrected"] == 6750
        assert payload["indices"]["s2_co"]["as_printed"] == 7800
        assert payload["indices"]["s2_co"]["erratum"] is True

    def test_large_values_rendered_as_strings(self, capsys):
        # hypercube(15): s2 = 15^3 * 2^42 exceeds the 53-bit safe range
        code, out, _ = run(capsys, "closed-form", "--family", "hypercube",
                           "--n", "15", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["indices"]["s2"]["corrected"] == str(15 ** 3 * 2 ** 42)
        assert isinstance(payload["indices"]["s1"]["corrected"], int)

    @pytest.mark.parametrize("flags", ([], ["--json"]))
    def test_value_over_the_digit_limit_writes_nothing(self, capsys, digit_limit, flags):
        # hypercube(3566) passes the order gate, but its corrected s2_co,
        # (C(2^n, 2) - n 2^(n-1)) (n 2^(n-1))^2, has 4301 digits
        code, out, err = run(capsys, "closed-form", "--family", "hypercube",
                             "--n", "3566", *flags)
        assert code == 2
        assert out == ""
        assert err == ("error: indices.s2_co.corrected has more than 4300 digits, "
                       "the limit for writing an integer as text\n")

    @pytest.mark.parametrize("family", (["kneser", "--p", "100000", "--k", "20000"],
                                        ["hypercube", "--n", "4000000"],
                                        ["hypercube", "--n", "5000"],
                                        ["kneser", "--p", "14001", "--k", "7000"]))
    def test_order_over_the_digit_limit_evaluates_nothing(self, capsys, digit_limit,
                                                          monkeypatch, family):
        def evaluated(spec):
            raise AssertionError(f"closed forms evaluated for {spec.label()}")

        monkeypatch.setattr(closed_forms, "closed_forms_for", evaluated)
        code, out, err = run(capsys, "closed-form", "--family", *family)
        assert code == 2
        assert out == ""
        assert err == ("error: indices.s2.corrected or indices.s2_co.corrected has more "
                       "than 4300 digits, the limit for writing an integer as text\n")

    def test_order_gate_is_tight(self, capsys, digit_limit):
        # kneser(3571, 1785) passes the gate, and its largest value has 4299 digits
        code, out, _ = run(capsys, "closed-form", "--family", "kneser",
                           "--p", "3571", "--k", "1785", "--json")
        assert code == 0
        digits = [len(value[mode]) for value in json.loads(out)["indices"].values()
                  for mode in ("corrected", "as_printed")]
        assert max(digits) == 4299

    @pytest.mark.parametrize("limit", (1, 2, 3, 4, 5, 10, 100, 4300))
    def test_largest_order_is_the_last_that_fits(self, limit):
        n = cli._largest_order(limit)
        assert cli._s2_floor(n) < 10 ** limit <= cli._s2_floor(n + 1)

    def test_order_gate_bound_holds_on_the_grid(self):
        # the gate may only reject what would fail to print: the bound must
        # not exceed the larger corrected value on any spec
        for spec in default_grid():
            report = closed_forms_for(spec)
            largest = max(report.indices["s2"].corrected, report.indices["s2_co"].corrected)
            assert cli._s2_floor(report.n) <= largest, spec

    def test_json_payload_fields(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "nanotorus",
                           "--p", "8", "--q", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"family", "n", "m", "degree", "sigma", "wiener", "indices"}
        assert payload["family"] == "nanotorus(p=8, q=6)"
        assert list(payload["indices"]) == ["s1", "s1_co", "s2", "s2_co"]
        for value in payload["indices"].values():
            assert list(value) == ["as_printed", "corrected", "erratum"]
            assert value["erratum"] is (value["as_printed"] != value["corrected"])

    def test_no_closed_forms_for_path(self, capsys):
        # the parser itself restricts --family choices and exits with 2
        with pytest.raises(SystemExit) as exc:
            main(["closed-form", "--family", "path", "--n", "4"])
        assert exc.value.code == 2


class TestVerify:
    def test_single_family_point(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "kneser", "--p", "5", "--k", "2")
        assert code == 0
        assert "hard failures" in out

    def test_range_syntax(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "hypercube", "--n", "1..3")
        assert code == 0
        assert "hypercube(n=3)" in out

    def test_range_skips_invalid_combinations(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "kneser",
                           "--p", "4..5", "--k", "2")
        assert code == 0
        assert "skipped" in out
        assert "kneser(p=5, k=2)" in out

    def test_single_invalid_point_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "kneser", "--p", "4", "--k", "2")
        assert code == 2

    def test_sweep_skips_the_single_vertex_kneser_graph(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "kneser",
                           "--p", "1..6", "--k", "1..2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["cases"] == payload["summary"]["passed"] == 42
        assert any(item.startswith("kneser(p=1, k=1) is K1") for item in payload["skipped"])
        code, out, err = run(capsys, "verify", "--family", "kneser", "--p", "1", "--k", "1")
        assert code == 2
        assert out == ""
        assert err == "error: kneser(p=1, k=1) is K1, which has no closed forms; use path(n=1)\n"

    def test_family_without_params_uses_grid_slice(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "nanotorus", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["cases"] == 60
        assert payload["summary"]["hard_failures"] == 0
        notes = {c["note"] for c in payload["cases"] if c["case"] == "nanotorus(p=4, q=2)"}
        assert any("parameter exchange" in note for note in notes)

    def test_as_printed_mode_reports_errata(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "hypercube",
                           "--n", "2", "--mode", "as-printed")
        assert code == 0
        assert "erratum" in out

    def test_random_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "random", "--count", "10")
        assert code == 0
        assert "hard failures" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "random", "--count", "0"),
            ("--family", "nanotorus", "--p", "3..3", "--q", "3..5"),
        ],
    )
    def test_empty_run_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert "summary" not in out
        assert err.startswith("error: no cases checked")

    def test_count_above_the_cap_draws_nothing(self, capsys, monkeypatch):
        def drawn(**kwargs):
            raise AssertionError("the corpus was drawn")

        monkeypatch.setattr(verify, "verify_random_suite", drawn)
        code, out, err = run(capsys, "verify", "--family", "random", "--count", "20002")
        assert (code, out, err) == (2, "", "error: --count 20002 is more than 20001\n")

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_hostile_count_exits_2_in_bounded_memory(self):
        result, elapsed = run_in_512_mb("verify", "--family", "random", "--count", "100000000")
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        assert result.stderr == "error: --count 100000000 is more than 20001\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("flags", (("--count", "10"), ("--seed", "1"), ("--dense",)))
    @pytest.mark.parametrize("family", ((), ("--family", "hypercube", "--n", "2")))
    def test_random_flags_need_family_random(self, capsys, family, flags):
        # read and then ignored would look like a setting that took effect
        code, out, err = run(capsys, "verify", *family, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {flags[0]} applies to --family random only\n"

    def test_random_suite_rejects_as_printed(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "random",
                           "--count", "5", "--mode", "as-printed")
        assert code == 2


    @pytest.mark.parametrize("value", NON_ASCII_INTEGERS)
    @pytest.mark.parametrize("template", ("{}", "1..{}", "{}..12"))
    def test_range_takes_ascii_digits_only(self, capsys, template, value):
        code, out, err = run(capsys, "verify", "--family", "hypercube",
                             "--n", template.format(value))
        assert code == 2
        assert out == ""
        assert f"invalid integer {value!r}" in err

    @pytest.mark.parametrize("value", NON_ASCII_INTEGERS)
    @pytest.mark.parametrize("option", ("--count", "--seed"))
    def test_integer_options_take_ascii_digits_only(self, capsys, option, value):
        code, out, err = run(capsys, "verify", "--family", "random", "--count", "10",
                             option, value)
        assert code == 2
        assert out == ""
        assert f"invalid integer {value!r}" in err

    @pytest.mark.parametrize("argv", (
        ("generate", "--family", "hypercube", "--n", "20000"),
        ("verify", "--family", "hypercube", "--n", "20000"),
        ("generate", "--family", "kneser", "--p", "1000000", "--k", "400000"),
        ("verify", "--family", "kneser", "--p", "1000000", "--k", "400000"),
    ))
    def test_huge_specs_fail_on_the_vertex_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        label = "hypercube(n=20000)" if "hypercube" in argv else "kneser(p=1000000, k=400000)"
        assert err == f"error: {label} has more vertices than the cap of 20000\n"

    def test_integer_options_are_read(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "random", "--json",
                           "--count", "7", "--seed", "-3")
        assert code == 0
        cases = json.loads(out)["cases"]
        assert {c["case"] for c in cases} == {
            f"random[mixed,seed={s},n={n}]" for s, n in zip(range(-3, 4), range(2, 9))
        }

    def test_negative_range_bound_is_an_integer(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "hypercube", "--n=-1..2")
        assert code == 0
        assert "skipped: hypercube(n=-1)" in out
        assert "hypercube(n=2)" in out

    @pytest.mark.parametrize("family, flag, params", (
        ("hypercube", "--p", "--n"),
        ("kneser", "--n", "--p, --k"),
        ("intersection", "--q", "--p, --t"),
        ("nanotorus", "--t", "--p, --q"),
    ), ids=("hypercube", "kneser", "intersection", "nanotorus"))
    def test_foreign_flag_alone_exits_2(self, capsys, family, flag, params):
        # a foreign flag alone must not fall through to the family's grid slice
        code, out, err = run(capsys, "verify", "--family", family, flag, "3")
        assert code == 2
        assert out == ""
        assert err == (f"error: family {family!r} does not take {flag} "
                       f"(its parameters are {params})\n")

    @pytest.mark.parametrize("argv", (
        ("generate", "--family", "kneser", "--p", "200", "--k", "2"),
        ("generate", "--family", "complete", "--n", "20000"),
        ("verify", "--family", "intersection", "--p", "15", "--t", "8"),
    ))
    def test_dense_specs_fail_on_the_edge_cap(self, capsys, argv):
        # a spec under the vertex cap can still have far too many edges:
        # it must be rejected before anything is built
        labels = {"kneser": ("kneser(p=200, k=2)", 194054850),
                  "complete": ("complete(n=20000)", 199990000),
                  "intersection": ("intersection(p=15, t=8)", 20701395)}
        label, edges = labels[argv[2]]

        def unreachable(*args, **kwargs):
            raise AssertionError("generator reached")

        builds = {kind: f._replace(build=unreachable) for kind, f in FAMILIES.items()}
        with mock.patch.dict(FAMILIES, builds):
            code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {label} has {edges} edges, more than the cap of 2000000\n"

    @pytest.mark.parametrize("value, message", (
        ("1..20001", "ends above the vertex cap of 20000"),
        (f"15..{10 ** 30}", "ends above the vertex cap of 20000"),
        ("-1..20000", "holds more than 20001 values"),
    ))
    def test_range_past_the_vertex_cap_exits_2(self, capsys, value, message):
        code, out, err = run(capsys, "verify", "--family", "hypercube", f"--n={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: range {value!r} {message}\n"

    def test_longest_range_is_swept(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "intersection",
                             "--p=0..20000", "--t", "1")
        assert code == 2
        assert out == ""
        assert err == "error: no cases checked (20001 invalid parameter combinations skipped)\n"

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize("ranges, message, seconds", (
        (("--family", "hypercube", "--n", "30..30000000"),
         "range '30..30000000' ends above the vertex cap of 20000", None),
        # 10,791 skipped combinations, then the first spec over the cap
        (("--family", "kneser", "--p", "30..41", "--k", "20..1000"),
         "kneser(p=41, k=20) has more vertices than the cap of 20000", None),
        (("--family", "hypercube", "--n", f"15..{10 ** 30}"),
         f"range '15..{10 ** 30}' ends above the vertex cap of 20000", None),
        # two million invalid combinations, none of them checked
        (("--family", "kneser", "--p", "3", "--k", "1..2000000"),
         "range '1..2000000' ends above the vertex cap of 20000", 1.0),
        # four million combinations, every one with a parameter below 1
        (("--family", "kneser", "--p=-200..0", "--k", "1..20000"),
         "range '-200..0' holds no positive value", 1.0),
        # two hundred million positive combinations, none of them valid
        (("--family", "kneser", "--p", "1..20000", "--k", "10001..20000"),
         "the ranges hold 200000000 parameter combinations, more than 20001", 1.0),
    ), ids=("hypercube", "kneser", "beyond-maxsize", "long-skipped-sweep", "range-below-1",
            "infeasible-sweep"))
    def test_hostile_range_exits_2_in_bounded_memory(self, ranges, message, seconds):
        # a range ending above the cap is rejected as it is read; a sweep
        # takes one spec at a time, so the first over the cap ends it
        result, elapsed = run_in_512_mb("verify", *ranges)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"
        assert seconds is None or elapsed < seconds


class TestBounds:
    def test_five_cycle_equality(self, capsys, c5_path):
        code, out, _ = run(capsys, "bounds", str(c5_path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "s1_lower": 60, "s2_lower": 180, "s1_actual": 60, "s2_actual": 180,
            "equality": True, "complement_diameter": 2,
        }

    def test_p4_strict(self, capsys, p4_path):
        code, out, _ = run(capsys, "bounds", str(p4_path))
        assert code == 0
        assert "s1_lower: 26" in out
        assert "s1_actual: 28" in out
        assert "equality: False" in out

    @pytest.mark.parametrize("command", ("bounds", "identities"))
    def test_complement_above_the_edge_cap_exits_2(self, capsys, tmp_path, monkeypatch,
                                                   command):
        # C2002 has the fewest vertices of the cycles whose complement is
        # over the cap; identities checks the cap before its own BFS
        def unreachable(g):
            raise AssertionError("distances computed")

        path = tmp_path / "cycle2002.edges"
        assert run(capsys, "generate", "--family", "cycle", "--n", "2002", "-o", str(path))[0] == 0
        monkeypatch.setattr(verify, "transmission_profile", unreachable)
        monkeypatch.setattr(indices, "profile_from_rows", unreachable)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: the complement has 2000999 edges, more than the cap of 2000000\n"

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_sparse_file_at_the_vertex_cap_exits_2_in_bounded_memory(self, capsys, tmp_path):
        path = tmp_path / "cycle20000.edges"
        assert run(capsys, "generate", "--family", "cycle", "--n", "20000", "-o", str(path))[0] == 0
        result, _ = run_in_512_mb("bounds", str(path))
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        assert result.stderr == ("error: the complement has 199970000 edges, "
                                 "more than the cap of 2000000\n")

    def test_disconnected_graph_with_a_connected_complement(self, capsys, tmp_path):
        # two disjoint edges: the complement is the 4-cycle
        path = tmp_path / "2k2.edges"
        path.write_text("0 1\n2 3\n")
        code, out, _ = run(capsys, "bounds", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {
            "s1_lower": 32, "s2_lower": 64, "s1_actual": 32, "s2_actual": 64,
            "equality": True, "complement_diameter": 2,
        }

    def test_disconnected_complement_exits_2(self, capsys, tmp_path):
        path = tmp_path / "k4.edges"
        path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, _, err = run(capsys, "bounds", str(path))
        assert code == 2


class TestIdentities:
    def test_demo_fixture_reports_its_published_value(self, capsys, demo5_path, p4_path):
        # the fixture graph is recognised from its edges, whatever the file
        code, out, _ = run(capsys, "identities", str(demo5_path))
        assert code == 0
        assert f"erratum {demo5_path} published.s1_co: 11 vs oracle 22  [" in out
        assert out.endswith("summary: 7 cases, 6 passed, 1 registered errata, "
                            "0 hard failures\n")
        code, out, _ = run(capsys, "identities", str(p4_path))
        assert code == 0
        assert "published" not in out

    def test_tag_on_another_graph_exits_2(self, capsys, p4_path):
        # there is no --tag: the published rows follow from the graph itself
        with pytest.raises(SystemExit) as exc:
            main(["identities", str(p4_path), "--tag", "demo5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tag demo5" in captured.err

    def test_json_contains_rows(self, capsys, c5_path):
        code, out, _ = run(capsys, "identities", str(c5_path), "--json")
        assert code == 0
        payload = json.loads(out)
        indices = {c["index"] for c in payload["cases"]}
        assert "identity.s1_co" in indices
        assert "diam2_zagreb.s2_co" in indices
        assert "complement_bound.equality_iff" in indices
        assert payload["summary"]["hard_failures"] == 0


class TestJsonStability:
    def test_repeated_runs_byte_identical(self, capsys, demo5_path):
        outputs = {
            run(capsys, "compute", str(demo5_path), "--json")[1] for _ in range(3)
        }
        assert len(outputs) == 1

    def test_verify_json_byte_identical(self, capsys):
        a = run(capsys, "verify", "--family", "intersection", "--json")[1]
        b = run(capsys, "verify", "--family", "intersection", "--json")[1]
        assert a == b

    @pytest.mark.parametrize("argv, digest", [
        ((), "37a5407ede7ddc15dffaf798b8f9b4e5bb5b3e75e258e225d7ad2757add92444"),
        (("--mode", "as-printed"),
         "8d8c794ddae373e7dd9feecae0c7e178d433d56cbc388b06f2cd3463082cf18b"),
        (("--family", "random", "--count", "200"),
         "d206fa8b7824469dcaa7230a11bd8cabeefc1e5f6c46f2320d8d2a7b60770977"),
        (("--family", "random", "--count", "200", "--dense"),
         "aa21aaff126f23ab5eb94e99921688dbcd63326333f84295269883bffd871ae5"),
    ], ids=["grid", "as-printed", "random", "dense"])
    def test_verify_json_bytes_are_pinned(self, capsys, argv, digest):
        # row order and note text included: the bytes of the report itself
        code, out, err = run(capsys, "verify", "--json", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def oracle_report_json(report: VerificationReport, skipped=()) -> str:
    """The report as ``json.dumps(indent=2)`` renders a payload dict of it:
    the reference the row-by-row writer must equal byte for byte."""
    payload = {
        "summary": report.summary(),
        "cases": [
            {
                "case": c.case_id,
                "index": c.index_name,
                "oracle": c.oracle,
                "formula": c.formula,
                "mode": c.mode,
                "match": c.match,
                "registered_erratum": c.registered_erratum,
                "note": c.note,
            }
            for c in report.cases
        ],
    }
    if skipped:
        payload["skipped"] = skipped
    return json.dumps(cli._jsonable(payload), sort_keys=True, indent=2) + "\n"


def written_report_json(report: VerificationReport, skipped=()) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        cli._write_report_json(report, skipped)
    return buffer.getvalue()


SAFE = 2 ** 53 - 1
EDGE_INTEGERS = (0, SAFE, -SAFE, SAFE + 1, -SAFE - 1, 2 ** 80, -(2 ** 80))
#: Texts JSON must escape: quotes, backslashes, control characters,
#: non-ASCII (including a lone surrogate and U+2028), and the empty string.
EDGE_TEXTS = ("", '"', "\\", "\x00\x1f\n\t", "K\u2084 \u2014 \u00e9", "\ud800", "\u2028")

report_integers = st.one_of(st.sampled_from(EDGE_INTEGERS), st.integers(-(2 ** 80), 2 ** 80))
report_texts = st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=12))
report_cases = st.builds(
    VerificationCase,
    case_id=report_texts, index_name=report_texts, oracle=report_integers,
    formula=report_integers, mode=report_texts, match=st.booleans(),
    registered_erratum=st.booleans(), note=report_texts,
)
report_skipped = st.lists(report_texts, max_size=4)


class TestReportJson:
    @settings(max_examples=100, deadline=None)
    @given(cases=st.lists(report_cases, min_size=1, max_size=6), skipped=report_skipped,
           rows_per_write=st.integers(1, 5))
    @example(cases=[VerificationCase("a", "s1", 2 ** 53, -(2 ** 53), "corrected", False)],
             skipped=[], rows_per_write=1)
    def test_matches_json_dumps(self, cases, skipped, rows_per_write):
        report = VerificationReport(cases=cases)
        with mock.patch.object(cli, "_ROWS_PER_WRITE", rows_per_write):
            assert written_report_json(report, skipped) == oracle_report_json(report, skipped)

    @pytest.mark.parametrize("value", EDGE_INTEGERS)
    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_one_case(self, value, text):
        report = VerificationReport(cases=[
            VerificationCase(text, text, value, -value, text, value == 0, True, text),
        ])
        for skipped in ([], [text, "kneser(p=4, k=2)"]):
            assert written_report_json(report, skipped) == oracle_report_json(report, skipped)

    def test_random_suite_command(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--family", "random",
                           "--count", "200", "--dense")
        assert code == 0
        report = verify_random_suite(count=200, seed=DEFAULT_SEED, dense=True)
        assert out == oracle_report_json(report)


#: Every option of the program and of each subcommand, in the order
#: ``build_parser`` adds them: adding or removing a setting edits this table.
FAMILY_FLAGS = ("--n", "--p", "--q", "--k", "--t")
OPTIONS = {
    "statusindex": ("-h", "--help"),
    "compute": ("-h", "--help", "--json"),
    "generate": ("-h", "--help", "--family", *FAMILY_FLAGS, "-o", "--output"),
    "closed-form": ("-h", "--help", "--family", *FAMILY_FLAGS, "--json"),
    "verify": ("-h", "--help", "--family", *FAMILY_FLAGS, "--mode", "--seed", "--count",
               "--dense", "--json"),
    "bounds": ("-h", "--help", "--json"),
    "identities": ("-h", "--help", "--json"),
}


class TestSettings:
    def test_options_are_the_table(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {name: tuple(s for a in sub._actions for s in a.option_strings)
                 for name, sub in [("statusindex", parser), *commands.choices.items()]}
        assert found == OPTIONS

    @pytest.mark.parametrize("argv, message", (
        (("closed-form", "--family", "hypercube", "--n", "3", "--as-printed"),
         "unrecognized arguments: --as-printed"),
        (("verify", "--mode", "as_printed"), "invalid choice: 'as_printed'"),
    ), ids=("closed-form-as-printed", "verify-mode-underscore"))
    def test_removed_settings_exit_2(self, capsys, argv, message):
        # identities --tag: see TestIdentities.test_tag_on_another_graph_exits_2
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
