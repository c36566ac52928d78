"""End-to-end benchmark of the statusindex command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload compute-sparse --seed 1 --seconds 28 --trace 0

Each workload is a fixed list of ``statusindex`` commands. This script
runs them as fresh subprocesses, one at a time (a closed loop with one
client), repeating the whole list until ``--seconds`` is used up. Every
command's output is checked by value against ``expected.json``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from a traced run that
executes the same commands in this process through
``statusindex.cli.main`` with span recorders around each module's
public functions (see ``spans.py``). Exit code 2 means the benchmark
could not run at all (for example, no ``src/statusindex`` to run).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from bench import (
    EXPECTED_PATH, ROOT, SRC, WORK, Samples, Tally, child_env, metric, setup,
    untraced_rep, workloads,
)


def git_revision() -> str:
    """The checkout's git revision, or a digest of ``src/`` where the
    checkout is not a git repository."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def environment(seed: int, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": git_revision(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads(0)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "statusindex" / "__init__.py").is_file():
        print(f"error: no statusindex package under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    workload = workloads(args.seed)[args.workload]
    env = child_env()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        setup_times = setup(workload, workdir, env, expected, tally)
        samples = Samples()
        if args.trace:
            from spans import traced_run  # imports statusindex; untraced runs never do
            metrics = traced_run(workload, workdir, env, expected, samples, tally,
                                 args.seconds, args.workload)
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                untraced_rep(workload, workdir, env, expected, samples, tally)
                if time.perf_counter() + statistics.median(samples.rep_walls) > deadline:
                    break
            metrics = {
                "wall_ref": metric(samples.wall_in_ref(), "ref"),
                "cpu_ref": metric(samples.cpu_in_ref(), "ref"),
                "peak_rss_mb": metric(samples.peak_rss_mb(), "MB"),
                "setup_s": metric(statistics.median(setup_times), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    record = environment(args.seed, args.workload)
    record["list_repetitions"] = len(samples.rep_walls)
    record["wall_s"] = samples.wall_s()
    record["cpu_s"] = samples.cpu_s()
    record["ref_s"] = samples.ref_s()
    record["wall_samples"] = [[round(w, 4) for w in samples.wall[i]] for i in sorted(samples.wall)]
    record["cpu_samples"] = [[round(c, 4) for c in samples.cpu[i]] for i in sorted(samples.cpu)]
    print("env " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
