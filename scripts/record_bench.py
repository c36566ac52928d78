#!/usr/bin/env python3
"""Record one benchmark run of every workload as ``BENCH_<label>.json``.

Usage, from anywhere in a source checkout:

    python3 scripts/record_bench.py --label after-streaming-json --seed 1 --seconds 28

Runs ``perfbench/run.py --trace 0`` once per workload named in
``BENCHMARK.json``, one after another, and writes each workload's
``metrics``, ``attempted``, ``failed`` and ``env`` line to
``BENCH_<label>.json`` at the repository root. Exits 1 if a run fails
or reports a failed operation; the file is written either way.
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def workload_names(root: Path = ROOT) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in spec["workloads"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="file label: letters, digits, '.', '_' and '-'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error(f"label {args.label!r} is not a plain file-name part")

    record: dict = {"label": args.label, "workloads": {}}
    ok = True
    for name in workload_names():
        command = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        print(f"running {name} ...", file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            record["workloads"][name] = {"error": f"exit {done.returncode}"}
            ok = False
            continue
        entry = parse_run_output(done.stdout)
        record["workloads"][name] = entry
        ok = ok and entry["failed"] == 0
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
