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
