"""scripts/record_bench.py reads runner output; perfbench/spans.py wraps
live names; the benchmark's generated inputs keep their recorded digests."""
from __future__ import annotations

import ast
import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from statusindex.cli import main

SCRIPTS = Path(__file__).parents[1] / "scripts"
PERFBENCH = Path(__file__).parents[1] / "perfbench"


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
    assert load_record_bench().workload_names() == [
        "compute-sparse", "compute-dense", "verify-families", "checks",
    ]


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


def test_record_bench_runs_alternating_pairs_against_a_parent(tmp_path, monkeypatch):
    record_bench = load_record_bench()
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").touch()
    calls = []

    def fake_run(checkout, name, seed, seconds):
        side = "parent" if checkout == parent else "change"
        calls.append((name, seed, side))
        return record_bench.parse_run_output(run_output(3.0 if side == "parent" else 2.5, 40.0))

    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "run_once", fake_run)
    assert record_bench.main(["--label", "t", "--seed", "4", "--parent", str(parent)]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    names = record_bench.workload_names()
    assert sorted(record["workloads"]) == sorted(names)
    pairs = record_bench.PAIRS
    seeds = range(4, 4 + pairs)
    first = (["parent", "change"] * pairs)[:pairs]  # the parent first on even seeds
    second = {"parent": "change", "change": "parent"}
    for name in names:
        runs = [(seed, side) for n, seed, side in calls if n == name]
        assert runs == [run for seed, side in zip(seeds, first)
                        for run in ((seed, side), (seed, second[side]))]
        entry = record["workloads"][name]
        assert [pair["first"] for pair in entry["pairs"]] == first
        assert entry["summary"]["wall_ref"]["change_won"] == pairs


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
