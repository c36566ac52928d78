"""scripts/record_bench.py reads runner output; perfbench/spans.py wraps
live names; the benchmark's generated inputs keep their recorded digests."""
from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from statusindex.cli import main

SCRIPTS = Path(__file__).parents[1] / "scripts"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
BENCHMARK = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPTS / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: One ``perfbench/run.py --trace 0`` output, as the runner prints it.
RUN_OUTPUT = (
    'env {"cpu_s": 0.841604, "list_repetitions": 1, "nproc": 2, "python": "3.11.7", '
    '"seed": 1, "wall_s": 0.858547, "workload": "compute-dense"}\n'
    '{"correct": true, "attempted": 21, "failed": 0, "metrics": '
    '{"wall_ref": {"value": 3.26057, "unit": "ref"}, '
    '"peak_rss_mb": {"value": 43.0, "unit": "MB"}}}\n'
)


def test_record_bench_parses_run_output():
    entry = load_record_bench().parse_run_output(RUN_OUTPUT)
    assert entry == {
        "metrics": {
            "wall_ref": {"value": 3.26057, "unit": "ref"},
            "peak_rss_mb": {"value": 43.0, "unit": "MB"},
        },
        "attempted": 21,
        "failed": 0,
        "env": {
            "cpu_s": 0.841604, "list_repetitions": 1, "nproc": 2, "python": "3.11.7",
            "seed": 1, "wall_s": 0.858547, "workload": "compute-dense",
        },
    }


@pytest.mark.parametrize("text", [
    "",
    RUN_OUTPUT.splitlines()[1],  # no env line
    RUN_OUTPUT.splitlines()[0],  # no result line
    RUN_OUTPUT + RUN_OUTPUT,  # two runs
    RUN_OUTPUT.replace('"failed": 0, ', ""),
])
def test_record_bench_rejects_other_output(text):
    with pytest.raises(ValueError):
        load_record_bench().parse_run_output(text)


def test_record_bench_reads_the_four_workloads():
    names, seconds, better = load_record_bench().load_benchmark()
    assert names == ["compute-sparse", "compute-dense", "verify-families", "checks"]
    assert seconds == BENCHMARK["run_seconds"]
    assert better == {"wall_ref": "lower", "cpu_ref": "lower", "peak_rss_mb": "lower",
                      "setup_s": "lower"}


def run_output(wall_ref: float, peak_rss_mb: float) -> str:
    """A synthetic ``run.py`` output with these two metric values."""
    return (RUN_OUTPUT.replace("3.26057", repr(wall_ref))
            .replace('"value": 43.0', f'"value": {peak_rss_mb!r}'))


def test_record_bench_summarises_pairs():
    record_bench = load_record_bench()
    walls = [(2.7, 3.1), (2.8, 3.2), (3.0, 3.0), (2.6, 3.3), (2.9, 2.8)]  # (change, parent)
    pairs = [
        {"seed": seed, "first": "change" if seed % 2 else "parent",
         "change": record_bench.parse_run_output(run_output(change, 40.0 + seed)),
         "parent": record_bench.parse_run_output(run_output(parent, 42.0))}
        for seed, (change, parent) in enumerate(walls, start=1)
    ]
    summary = record_bench.summarise_pairs(
        pairs, {"wall_ref": "lower", "peak_rss_mb": "higher", "setup_s": "lower"})
    assert set(summary) == {"wall_ref", "peak_rss_mb"}  # no run reports setup_s
    wall = summary["wall_ref"]
    assert (wall["better"], wall["pairs"], wall["change_won"]) == ("lower", 5, 3)  # one tie
    assert wall["change"]["values"] == [2.7, 2.8, 3.0, 2.6, 2.9]
    assert wall["parent"]["values"] == [3.1, 3.2, 3.0, 3.3, 2.8]
    # statistics.quantiles(n=4), the exclusive method, on 5 values
    assert wall["change"]["median"] == 2.8
    assert wall["change"]["q1"] == pytest.approx(2.65)
    assert wall["change"]["q3"] == pytest.approx(2.95)
    assert wall["parent"]["median"] == 3.1
    assert wall["parent"]["q1"] == pytest.approx(2.9)
    assert wall["parent"]["q3"] == pytest.approx(3.25)
    rss = summary["peak_rss_mb"]
    assert rss["change_won"] == 3  # 41 .. 45 against 42, higher is better


def test_record_bench_summary_skips_failed_runs():
    record_bench = load_record_bench()
    ok = record_bench.parse_run_output(run_output(3.0, 40.0))
    pairs = [
        {"seed": 1, "first": "change", "change": {"error": "exit 2"}, "parent": ok},
        {"seed": 2, "first": "parent", "change": record_bench.parse_run_output(run_output(2.5, 40.0)),
         "parent": ok},
    ]
    wall = record_bench.summarise_pairs(pairs, {"wall_ref": "lower"})["wall_ref"]
    assert (wall["pairs"], wall["change_won"]) == (1, 1)
    assert wall["change"] == {"median": 2.5, "q1": 2.5, "q3": 2.5, "values": [2.5]}


def fake_parent(tmp_path: Path) -> Path:
    """A directory that passes the recorder's check for a parent checkout."""
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").touch()
    return parent


def test_record_bench_runs_alternating_pairs_against_a_parent(tmp_path, monkeypatch):
    record_bench = load_record_bench()
    parent = fake_parent(tmp_path)
    calls = []

    def fake_run(checkout, name, seed, seconds):
        side = "parent" if checkout == parent else "change"
        calls.append((name, seed, side, seconds))
        return record_bench.parse_run_output(run_output(3.0 if side == "parent" else 2.5, 40.0))

    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "run_once", fake_run)
    assert record_bench.main(["--label", "t", "--seed", "4", "--parent", str(parent)]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert sorted(record["workloads"]) == sorted(names)
    pairs = record_bench.PAIRS
    seeds = range(4, 4 + pairs)
    first = (["parent", "change"] * pairs)[:pairs]  # the parent first on even seeds
    second = {"parent": "change", "change": "parent"}
    for name in names:
        runs = [(seed, side) for n, seed, side, _ in calls if n == name]
        assert runs == [run for seed, side in zip(seeds, first)
                        for run in ((seed, side), (seed, second[side]))]
        entry = record["workloads"][name]
        assert [pair["first"] for pair in entry["pairs"]] == first
        assert entry["summary"]["wall_ref"]["change_won"] == pairs
    # every run lasts BENCHMARK.json's run_seconds
    assert {seconds for *_, seconds in calls} == {BENCHMARK["run_seconds"]}


def test_record_bench_runs_only_the_named_workloads(tmp_path, monkeypatch):
    record_bench = load_record_bench()
    parent = fake_parent(tmp_path)
    calls = []

    def fake_run(checkout, name, seed, seconds):
        calls.append(name)
        return record_bench.parse_run_output(run_output(3.0, 40.0))

    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "run_once", fake_run)
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    last, first = names[-1], names[0]
    argv = ["--label", "t", "--parent", str(parent),
            "--workload", last, "--workload", first, "--workload", last]
    assert record_bench.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert sorted(record["workloads"]) == sorted([first, last])
    # in BENCHMARK.json's order, each once however often it is named
    pairs = record_bench.PAIRS
    assert calls == [first] * 2 * pairs + [last] * 2 * pairs


def test_record_bench_rejects_an_unknown_workload(tmp_path, monkeypatch, capsys):
    record_bench = load_record_bench()
    parent = fake_parent(tmp_path)
    calls = []
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "run_once", lambda *args: calls.append(args))
    argv = ["--label", "t", "--parent", str(parent), "--workload", "checks", "--workload", "nope"]
    with pytest.raises(SystemExit) as exit_info:
        record_bench.main(argv)
    assert exit_info.value.code == 2
    assert "no workload 'nope' in BENCHMARK.json" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("extra", [[], ["--parent", "PARENT", "--seconds", "5"]])
def test_record_bench_runs_nothing_without_a_parent_or_with_seconds(tmp_path, monkeypatch, extra):
    # one mode only: a change against its parent, for BENCHMARK.json's run length
    record_bench = load_record_bench()
    parent = fake_parent(tmp_path)
    calls = []
    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "run_once", lambda *args: calls.append(args))
    argv = ["--label", "t", *(str(parent) if arg == "PARENT" else arg for arg in extra)]
    with pytest.raises(SystemExit) as exit_info:
        record_bench.main(argv)
    assert exit_info.value.code == 2
    assert calls == []
    assert not (tmp_path / "BENCH_t.json").exists()


def test_record_bench_writes_the_file_when_a_run_prints_no_result(tmp_path, monkeypatch):
    # run.py exiting 0 without its result line fails that run, not the sweep
    record_bench = load_record_bench()
    parent = fake_parent(tmp_path)
    runs = []

    def fake_subprocess_run(command, cwd, **kwargs):
        runs.append(cwd)
        stdout = RUN_OUTPUT.splitlines()[0] if len(runs) == 2 else RUN_OUTPUT
        return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench.subprocess, "run", fake_subprocess_run)
    assert record_bench.main(["--label", "t", "--parent", str(parent)]) == 1
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert len(runs) == 2 * record_bench.PAIRS * len(BENCHMARK["workloads"])
    first = record["workloads"][BENCHMARK["workloads"][0]["name"]]
    assert first["pairs"][0]["first"] == "change"  # seed 1: the parent's run is the second
    assert first["pairs"][0]["parent"]["error"].startswith("unreadable output: ")
    assert first["pairs"][0]["change"]["failed"] == 0
    assert first["summary"]["wall_ref"]["pairs"] == record_bench.PAIRS - 1


#: A stand-in ``perfbench/run.py``: one ``env`` line with its arguments,
#: then one result line whose ``wall_ref`` is WALL.
STUB_RUN = """import json, sys
print("env " + json.dumps({"argv": sys.argv[1:]}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_ref": {"value": WALL, "unit": "ref"}}}))
"""


def test_record_bench_runs_the_runner_of_each_checkout(tmp_path, monkeypatch):
    # the real subprocess path, against two stub checkouts
    record_bench = load_record_bench()
    for side, wall in (("change", "2.5"), ("parent", "3.0")):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            STUB_RUN.replace("WALL", wall), encoding="utf-8")
    monkeypatch.setattr(record_bench, "ROOT", tmp_path / "change")
    monkeypatch.setattr(record_bench, "PAIRS", 2)
    argv = ["--label", "t", "--seed", "7", "--parent", str(tmp_path / "parent")]
    assert record_bench.main(argv) == 0
    record = json.loads((tmp_path / "change" / "BENCH_t.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert sorted(record["workloads"]) == sorted(names)
    for name in names:
        entry = record["workloads"][name]
        assert [(pair["seed"], pair["first"]) for pair in entry["pairs"]] == [
            (7, "change"), (8, "parent")]
        for pair in entry["pairs"]:
            for side, wall in (("change", 2.5), ("parent", 3.0)):
                assert pair[side]["metrics"]["wall_ref"]["value"] == wall
                assert pair[side]["env"]["argv"] == [
                    "--workload", name, "--seed", str(pair["seed"]),
                    "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
        wall_ref = entry["summary"]["wall_ref"]
        assert (wall_ref["pairs"], wall_ref["change_won"]) == (2, 2)


def assigned_value(path: Path, name: str) -> ast.expr:
    """The value assigned to the annotated module-level ``name`` in
    ``path``, read from its syntax tree: the module is not imported or run."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name:
            return node.value
    raise AssertionError(f"{path.name} defines no {name}")


def traced_layers() -> list[tuple[str, str]]:
    """The (module, qualname) pairs of ``LAYERS`` in ``perfbench/spans.py``."""
    layers = assigned_value(PERFBENCH / "spans.py", "LAYERS").elts
    return [(layer.elts[0].value, layer.elts[1].value) for layer in layers]


def test_every_traced_layer_resolves():
    # spans.py wraps functions by name and skips a name it cannot find,
    # so a renamed function would leave its layer reading 0
    known = ("graph", "complement")  # moved to tests/oracles.py; reads 0
    layers = traced_layers()
    assert len(layers) > 10
    missing = []
    for module_name, qualname in layers:
        owner = importlib.import_module(f"statusindex.{module_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append((module_name, qualname))
    assert [layer for layer in missing if layer != known] == []


def test_benchmark_inputs_keep_their_recorded_digests(tmp_path):
    # the benchmark generates these files before it runs, and a byte
    # change would otherwise show only as a failed operation there
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["inputs"]
    inputs = ast.literal_eval(assigned_value(PERFBENCH / "bench.py", "INPUTS"))
    assert sorted(inputs) == sorted(expected)
    for name, argv in inputs.items():
        path = tmp_path / name
        assert main(["generate", *argv, "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected[name], name


def value_runs(values: list[int]) -> list[list[int]]:
    """``values`` as ``[value, count]`` runs of equal neighbours, the form
    ``perfbench/expected.json`` records a transmission list in."""
    runs: list[list[int]] = []
    for value in values:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return runs


def test_benchmark_compute_inputs_reproduce_their_recorded_values(tmp_path, capsys):
    # a wrong field would otherwise show only as a failed benchmark operation
    commands = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["commands"]
    inputs = ast.literal_eval(assigned_value(PERFBENCH / "bench.py", "INPUTS"))
    computed = [name for name in inputs if f"compute --json {name}" in commands]
    assert len(computed) == 5
    for name in computed:
        path = tmp_path / name
        assert main(["generate", *inputs[name], "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["compute", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {key: None if value is None else int(value)
                  for key, value in payload.items() if key != "transmission"}
        values["transmission"] = value_runs([int(s) for s in payload["transmission"]])
        assert values == commands[f"compute --json {name}"], name
