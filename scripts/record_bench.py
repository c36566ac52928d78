#!/usr/bin/env python3
"""Record a change against its parent commit as ``BENCH_<label>.json``.

Usage, from anywhere in a source checkout:

    python3 scripts/record_bench.py --label my-change --parent ../parent-checkout

``--parent`` is another source checkout, the commit the change is
measured against. For each workload named in ``BENCHMARK.json`` the
script runs PAIRS pairs of ``perfbench/run.py --trace 0``, one run of
this checkout ("change") and one of the parent in each, on the seeds
``seed .. seed + PAIRS - 1`` (``--seed``, default 1). Each side runs its
own ``perfbench/run.py`` with the same arguments for the benchmark's
``run_seconds``, and the change runs first on odd seeds.
``BENCH_<label>.json`` at the repository root holds every run of both
sides (its ``metrics``, ``attempted``, ``failed`` and ``env`` line, or
``{"error": ...}`` for a run that exits non-zero or prints no result)
and, per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles and the number of pairs the change won (ties count for
neither side).

Exits 1 if a run fails or reports a failed operation; the file is
written either way. The spread of one checkout alone is recorded by
``perfbench/spread.py --runs N --out FILE``.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Pairs of runs per workload.
PAIRS = 10


def parse_run_output(stdout: str) -> dict:
    """The ``env`` line and the closing result line of one ``run.py``
    output, as ``{"metrics", "attempted", "failed", "env"}``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    envs = [line[len("env "):] for line in lines if line.startswith("env ")]
    if len(envs) != 1 or not lines or lines[-1].startswith("env "):
        raise ValueError("expected one 'env' line followed by a result line")
    result = json.loads(lines[-1])
    missing = {"metrics", "attempted", "failed"} - set(result)
    if missing:
        raise ValueError(f"result line lacks {', '.join(sorted(missing))}")
    return {
        "metrics": result["metrics"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": json.loads(envs[0]),
    }


def load_benchmark(root: Path = ROOT) -> tuple[list[str], float, dict[str, str]]:
    """From ``BENCHMARK.json``: the workload names, the seconds each run
    lasts, and each end-to-end metric with its better direction,
    ``"lower"`` or ``"higher"``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([workload["name"] for workload in spec["workloads"]], spec["run_seconds"],
            {metric["name"]: metric["better"] for metric in spec["end_to_end"]})


def run_once(checkout: Path, name: str, seed: int, seconds: float) -> dict:
    """One untraced ``run.py`` run in ``checkout``: its parsed output, or
    ``{"error": ...}`` when it exits non-zero or its output is unreadable."""
    command = [sys.executable, "perfbench/run.py", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return {"error": f"exit {done.returncode}"}
    try:
        return parse_run_output(done.stdout)
    except ValueError as error:  # a json.JSONDecodeError too
        return {"error": f"unreadable output: {error}"}


def healthy(entry: dict) -> bool:
    return "error" not in entry and entry["failed"] == 0


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, cut as ``statistics.quantiles(values, n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise_pairs(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric in ``better``, over the pairs in which both sides
    reported it: each side's values, median and quartiles, and
    ``change_won``, the number of those pairs the change won."""
    summary = {}
    for name, direction in better.items():
        values = [(pair["change"]["metrics"][name]["value"], pair["parent"]["metrics"][name]["value"])
                  for pair in pairs
                  if name in pair["change"].get("metrics", {})
                  and name in pair["parent"].get("metrics", {})]
        if not values:
            continue
        change, parent = (list(side) for side in zip(*values))
        won = sum(c < p if direction == "lower" else c > p for c, p in values)
        summary[name] = {
            "better": direction, "pairs": len(values), "change_won": won,
            "change": {**quartiles(change), "values": change},
            "parent": {**quartiles(parent), "values": parent},
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="file label: letters, digits, '.', '_' and '-'")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--parent", type=Path, required=True,
                        help=f"source checkout to run against: {PAIRS} alternating pairs a workload")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label {args.label!r} is not a plain file-name part")
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"parent {str(args.parent)!r} has no perfbench/run.py")

    names, seconds, better = load_benchmark()
    checkouts = {"change": ROOT, "parent": args.parent.resolve()}
    record: dict = {"label": args.label, "workloads": {}}
    ok = True
    for name in names:
        pairs = []
        for seed in range(args.seed, args.seed + PAIRS):
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                print(f"running {name} seed {seed} ({side}) ...", file=sys.stderr, flush=True)
                pair[side] = run_once(checkouts[side], name, seed, seconds)
                ok = ok and healthy(pair[side])
            pairs.append(pair)
        record["workloads"][name] = {"pairs": pairs, "summary": summarise_pairs(pairs, better)}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
