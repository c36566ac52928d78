from __future__ import annotations

import json
import subprocess
import sys

import pytest

from statusindex import cli
from statusindex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_internal_error_exits_3(self, capsys, demo5_path, monkeypatch):
        def broken(g, tp):
            raise ArithmeticError("total transmission must be even")

        monkeypatch.setattr(cli, "compute_index_bundle", broken)
        code, out, err = run(capsys, "compute", str(demo5_path))
        assert code == 3
        assert out == ""
        assert "internal error: total transmission must be even" in err
        assert "Traceback" in err


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
        assert "cap" in err
        code, out, _ = run(
            capsys, "generate", "--family", "hypercube", "--n", "15",
            "--max-vertices", "40000",
        )
        assert code == 0
        assert out.startswith("n 32768\n")

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


class TestClosedForm:
    def test_corrected_hypercube(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "hypercube", "--n", "2")
        assert code == 0
        assert "s1_co: 16" in out

    def test_as_printed_hypercube_shows_errata(self, capsys):
        code, out, _ = run(
            capsys, "closed-form", "--family", "hypercube", "--n", "2", "--as-printed"
        )
        assert code == 0
        assert "s1_co: -16" in out
        assert "erratum" in out

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

    def test_family_without_params_uses_grid_slice(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "nanotorus", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["cases"] == 36
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

    def test_random_suite_rejects_as_printed(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "random",
                           "--count", "5", "--mode", "as-printed")
        assert code == 2


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

    def test_disconnected_complement_exits_2(self, capsys, tmp_path):
        path = tmp_path / "k4.edges"
        path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, _, err = run(capsys, "bounds", str(path))
        assert code == 2


class TestIdentities:
    def test_demo_fixture_with_tag(self, capsys, demo5_path):
        code, out, _ = run(capsys, "identities", str(demo5_path), "--tag", "demo5")
        assert code == 0
        assert "erratum" in out
        assert "11 vs oracle 22" in out

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
