"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/spread.py [--runs 10] [--trace-runs 3] [--workload NAME ...] [--out FILE]

Each untraced run uses another seed (1, 2, ...). For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the interquartile range as a share of the median, next to
the metric's bound. ``--trace-runs`` adds that many traced runs per
workload and reports each per-layer metric's median. ``--out`` writes it
all as JSON; ``BASELINE.json`` was written this way.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(config: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (its env record, its result line)."""
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    env = json.loads(lines[-2].removeprefix("env "))
    return env, result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workload", action="append", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report: dict = {"run_seconds": config["run_seconds"], "workloads": {}}
    for name in names:
        entry: dict = {"runs": args.runs, "attempted": 0, "failed_ops": 0}
        per_metric: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            env, result = run(config, name, seed, trace=0)
            report.setdefault("environment", {k: env[k] for k in ("python", "nproc", "revision")})
            entry["attempted"] += result["attempted"]
            entry["failed_ops"] += result["failed"]
            for key, value in result["metrics"].items():
                per_metric.setdefault(key, []).append(value["value"])
        if args.runs:
            entry["end_to_end"] = {k: summarise(v) for k, v in per_metric.items()}
        print(f"{name}: {args.runs} runs, failed_ops={entry['failed_ops']} "
              f"of {entry['attempted']}")
        for key, s in entry.get("end_to_end", {}).items():
            print(f"  {key:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  iqr/median {s['iqr_share']:.4f}  bound {bounds[key]}", flush=True)
        if args.trace_runs:
            layers: dict[str, list[float]] = {}
            for seed in range(1, args.trace_runs + 1):
                _, result = run(config, name, seed, trace=1)
                entry["attempted"] += result["attempted"]
                entry["failed_ops"] += result["failed"]
                for key, value in result["metrics"].items():
                    layers.setdefault(key, []).append(value["value"])
            entry["trace_runs"] = args.trace_runs
            entry["per_layer_median"] = {k: statistics.median(v) for k, v in layers.items()}
            print("  per layer: " + ", ".join(
                f"{k} {v:.4g}" for k, v in entry["per_layer_median"].items() if v), flush=True)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
