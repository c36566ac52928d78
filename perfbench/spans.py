"""Traced run: span recorders around the public functions of each
statusindex module, installed from outside the package.

Each traced command runs in a fresh interpreter (``python3 spans.py
SUMMARY SPANS ARGV...``) that calls ``statusindex.cli.main(ARGV)`` with
the recorders installed. Each span holds a name, start, end and the
index of its parent span. Spans stay in memory until the command ends,
then are written out; the last repetition's spans are kept under
``.perfbench/spans-<workload>/``. A layer's self time is its spans' duration minus the part their
child spans cover. Work counts are taken at the same boundaries, from
the arguments and results of the wrapped calls.

The wrappers replace every module attribute bound to a wrapped
function, so names that ``cli`` and ``verify`` import directly (such as
``statusindex.cli.transmission_profile``) are measured too.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from bench import (
    IMPORT_PROBE, STARTUP_PROBES, WORK, Samples, Tally, Workload, check,
    command_key, metric, run_child, untraced_rep,
)

MODULES = ("cli", "graph", "indices", "families", "closed_forms", "verify")


def _edges(g: Any) -> int:
    # Counted from the rows so that no cached property of the graph is
    # filled in by the tracer.
    return sum(map(len, g.adjacency)) // 2


def _profile_pairs(counts, args, result) -> None:
    counts["graph.profile_pairs"] += args[0].n ** 2


def _nonedge_pairs(counts, args, result) -> None:
    g = args[0]
    counts["indices.nonedge_pairs"] += g.n * (g.n - 1) // 2 - _edges(g)


def _generated(counts, args, result) -> None:
    counts["families.vertices"] += result.n
    counts["families.edges"] += _edges(result)


def _closed_form_call(counts, args, result) -> None:
    counts["closed_forms.calls"] += 1


def _cases(counts, args, result) -> None:
    counts["verify.cases"] += len(result.cases)


#: (module, function or Class.method, self-time metric, counter).
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.self_s", None),
    ("graph", "parse_edge_list", "graph.parse_s", None),
    ("graph", "Graph.from_edges", "graph.build_s", None),
    ("graph", "Graph.__post_init__", "graph.validate_s", None),
    ("graph", "transmission_profile", "graph.profile_s", _profile_pairs),
    ("graph", "complement", "graph.complement_s", None),
    ("indices", "status_indices", "indices.edge_sums_s", None),
    ("indices", "zagreb_indices", "indices.edge_sums_s", None),
    ("indices", "status_coindices_direct", "indices.coindex_s", _nonedge_pairs),
    ("indices", "zagreb_coindices", "indices.coindex_s", _nonedge_pairs),
    ("indices", "status_coindices_identity", "indices.coindex_s", None),
    # The bundle's own arithmetic is the co-index route once the
    # identities replace the non-edge sums in compute.
    ("indices", "compute_index_bundle", "indices.coindex_s", None),
    ("indices", "diam2_coindex_formulas", "indices.diam2_s", None),
    ("indices", "complement_bounds", "indices.bounds_s", None),
    ("families", "generate", "families.generate_s", _generated),
    ("closed_forms", "closed_forms_for", "closed_forms.eval_s", _closed_form_call),
    ("verify", "verify_family", "verify.self_s", _cases),
    ("verify", "verify_identities", "verify.self_s", _cases),
    ("verify", "verify_random_suite", "verify.self_s", None),
    ("verify", "random_corpus", "verify.corpus_s", None),
)

SELF_METRICS = tuple(dict.fromkeys(layer[2] for layer in LAYERS))
COUNT_METRICS = ("graph.profile_pairs", "indices.nonedge_pairs", "families.vertices",
                 "families.edges", "closed_forms.calls", "verify.cases")


class Recorder:
    """In-memory spans and counts of one traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return recorded

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[dict[str, str]]:
    """Wrap every function in LAYERS and rebind each module attribute
    that refers to one; yields span name -> metric. Layers missing from
    the program are skipped, so their metrics read 0."""
    modules = [importlib.import_module("statusindex")] + [
        importlib.import_module(f"statusindex.{name}") for name in MODULES
    ]
    by_name = {module.__name__.rsplit(".", 1)[-1]: module for module in modules}
    replaced: dict[int, Callable] = {}
    undo: list[tuple[Any, str, Any]] = []
    span_metric: dict[str, str] = {}
    for module_name, qualname, metric_name, counter in LAYERS:
        owner: Any = by_name[module_name]
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            continue
        span_name = f"{module_name}.{qualname}"
        span_metric[span_name] = metric_name
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(raw.__func__, span_name, counter))
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        replaced[id(raw)] = recorder.wrap(raw, span_name, counter)
        if outer:
            undo.append((owner, attr, raw))
            setattr(owner, attr, replaced[id(raw)])
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                undo.append((module, attr, value))
                setattr(module, attr, replaced[id(value)])
    try:
        yield span_metric
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def trace_command(argv: list[str], summary_path: str, spans_path: str) -> int:
    """Run one command through the wrapped ``statusindex.cli.main`` in
    this process, then write the span summary and the spans. The
    package comes from ``src/`` through the ``PYTHONPATH`` that ``run.py`` sets."""
    from statusindex import cli

    recorder = Recorder()
    with installed(recorder) as span_metric:
        start = time.perf_counter()
        try:
            returncode = cli.main(argv)
        except SystemExit as exc:
            returncode = exc.code if isinstance(exc.code, int) else 2
        main_s = time.perf_counter() - start
    sys.stdout.flush()
    self_by_metric = dict.fromkeys(SELF_METRICS, 0.0)
    for span_name, seconds in recorder.self_times().items():
        self_by_metric[span_metric[span_name]] += seconds
    summary = {"main_s": main_s, "self": self_by_metric, "counts": recorder.counts}
    Path(summary_path).write_text(json.dumps(summary), encoding="utf-8")
    Path(spans_path).write_text(json.dumps(recorder.spans), encoding="utf-8")
    return returncode


def traced_rep(workload: Workload, workdir: Path, env: dict[str, str], expected: dict,
               tally: Tally) -> dict[str, Any]:
    """Run the command list once, each command in a fresh interpreter
    under ``trace_command``; returns the repetition's measurements."""
    rep: dict[str, Any] = {"walls": [], "main_s": [], "self": dict.fromkeys(SELF_METRICS, 0.0),
                           "counts": dict.fromkeys(COUNT_METRICS, 0), "stdout_mb": 0.0}
    for index, argv in enumerate(workload.commands):
        summary_path = workdir / f".summary-{index}.json"
        summary_path.unlink(missing_ok=True)
        result = run_child([sys.executable, __file__, str(summary_path),
                            f".spans-{index}.json", *argv], workdir, env)
        rep["walls"].append(result.wall_s)
        problem = check(argv, result.returncode, result.stdout, expected)
        if problem is None and not summary_path.exists():
            problem = "no span summary written"
        tally.record("traced " + command_key(argv), problem)
        if problem is not None:
            continue
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        covered = sum(summary["self"].values())
        if abs(covered - summary["main_s"]) > 0.01 * summary["main_s"] + 0.001:
            tally.record("trace coverage " + command_key(argv),
                         f"self times sum to {covered:.4f}s of {summary['main_s']:.4f}s")
        rep["main_s"].append(summary["main_s"])
        for key, value in summary["self"].items():
            rep["self"][key] += value
        for key, value in summary["counts"].items():
            rep["counts"][key] += value
        rep["stdout_mb"] += len(result.stdout.encode()) / 1e6
    return rep


def traced_run(workload: Workload, workdir: Path, env: dict[str, str], expected: dict,
               samples: Samples, tally: Tally, seconds: float, name: str) -> dict:
    """Alternate untraced and traced repetitions of the command list
    until ``seconds`` is used; report per-layer medians.

    trace.wall_s is measured like wall_s, on the traced commands, and
    trace.overhead_s is the difference. Each traced ``main`` is covered
    exactly by its spans' self times; trace.unattributed_s is the rest of
    the traced wall beyond that and the import time (cli.startup_s):
    interpreter exit, installing the recorders and writing the spans.
    """
    startup = []
    for _ in range(STARTUP_PROBES):
        probe = run_child(IMPORT_PROBE, workdir, env)
        tally.record("import statusindex", None if probe.returncode == 0
                     else f"exit code {probe.returncode}")
        startup.append(probe.wall_s)
    startup_s = statistics.median(startup)

    reps: list[dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        untraced_rep(workload, workdir, env, expected, samples, tally)
        reps.append(traced_rep(workload, workdir, env, expected, tally))
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    spans_dir = WORK / f"spans-{name}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    for index in range(len(workload.commands)):
        spans_file = workdir / f".spans-{index}.json"
        if spans_file.exists():
            shutil.move(spans_file, spans_dir / f"command-{index}.json")

    def median_of(read: Callable[[dict], float]) -> float:
        return statistics.median(read(rep) for rep in reps)

    commands = len(workload.commands)
    traced_wall = sum(
        statistics.median(rep["walls"][i] for rep in reps) for i in range(commands)
    )
    metrics = {"cli.startup_s": metric(startup_s, "s"),
               "cli.stdout_mb": metric(median_of(lambda r: r["stdout_mb"]), "MB")}
    for metric_name in SELF_METRICS:
        metrics[metric_name] = metric(median_of(lambda r: r["self"][metric_name]), "s")
    for metric_name in COUNT_METRICS:
        values = {rep["counts"][metric_name] for rep in reps}
        if len(values) != 1:
            tally.record(f"count {metric_name}", f"differs between repetitions: {values}")
        metrics[metric_name] = metric(max(values), "count")
    profile_s = metrics["graph.profile_s"]["value"]
    pairs = metrics["graph.profile_pairs"]["value"]
    metrics["graph.profile_pairs_per_s"] = metric(pairs / profile_s if profile_s else 0.0, "1/s")
    metrics["raw.wall_s"] = metric(samples.wall_s(), "s")
    metrics["raw.cpu_s"] = metric(samples.cpu_s(), "s")
    metrics["raw.ref_s"] = metric(samples.ref_s(), "s")
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - samples.wall_s(), "s")
    metrics["trace.unattributed_s"] = metric(
        median_of(lambda r: sum(r["walls"]) - sum(r["main_s"])) - commands * startup_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(trace_command(sys.argv[3:], sys.argv[1], sys.argv[2]))
