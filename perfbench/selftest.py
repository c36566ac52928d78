"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Shows that the gate counts exactly one failed op for each of: a command
whose output differs from one corrupted expected value, the same
command traced, and a command that exits non-zero; and none for the
same command against the recorded values. Exits 0 when all hold.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import sys

from bench import (
    EXPECTED_PATH, WORK, Samples, Tally, Workload, child_env, setup, untraced_rep,
)
from spans import traced_rep

BOUNDS = ("bounds", "--json", "nanotorus20x20.edges")


def failed_ops(workload: Workload, expected: dict, traced: bool = False) -> int:
    """Failed ops of one repetition of ``workload``, after a set-up
    that must itself succeed."""
    env = child_env()
    workdir = WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_tally = Tally()
        setup(workload, workdir, env, expected, setup_tally)
        if setup_tally.failed:
            raise SystemExit(f"set-up failed: {setup_tally.problems}")
        tally = Tally()
        if traced:
            traced_rep(workload, workdir, env, expected, tally)
        else:
            untraced_rep(workload, workdir, env, expected, Samples(), tally)
        for problem in tally.problems:
            print(f"    counted: {problem}")
        return tally.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    corrupted = copy.deepcopy(expected)
    corrupted["commands"][" ".join(BOUNDS)]["s1_lower"] += 1
    workload = Workload(inputs=("nanotorus20x20.edges",), commands=(BOUNDS,))
    missing = Workload(inputs=(), commands=(("bounds", "--json", "missing.edges"),))
    cases = (
        ("recorded values", workload, expected, False, 0),
        ("one corrupted expected value", workload, corrupted, False, 1),
        ("one corrupted expected value, traced", workload, corrupted, True, 1),
        ("non-zero exit (missing input file)", missing, expected, False, 1),
    )
    ok = True
    for label, load, values, traced, want in cases:
        got = failed_ops(load, values, traced)
        status = "ok" if got == want else "WRONG"
        ok &= got == want
        print(f"{status}: {label}: {got} failed op(s), expected {want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
