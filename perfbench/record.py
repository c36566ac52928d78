"""Record the expected values that the benchmark checks outputs against.

Run once, on the commit whose outputs are taken as correct:

    python3 perfbench/record.py

It generates every input file, runs every workload command whose output
does not depend on the seed, and writes ``perfbench/expected.json``.
Before writing, each ``compute`` result is cross-checked against an
independent route: ``statusindex closed-form --json`` (corrected values)
for the closed-form families, and the textbook values for the cycle.
Zagreb indices of these regular graphs follow from n, m and the degree.
Re-recording in a change that edits the program would hide its errors.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from math import comb

from bench import (
    EXPECTED_PATH, INPUTS, WORK, child_env, command_key, extract, run_child,
    run_length_encode, statusindex_argv, workloads,
)

#: Diameters known in closed form: hypercube(n) has diameter n, cycle(n)
#: has floor(n/2), and these intersection graphs have diameter 2.
KNOWN_DIAMETERS = {
    "hypercube11.edges": 11,
    "cycle1200.edges": 600,
    "intersection13_4.edges": 2,
    "intersection12_4.edges": 2,
}


def regular_values(n: int, m: int, degree: int, sigma: int) -> dict[str, int]:
    """Indices of a graph regular in both degree and transmission."""
    non_edges = comb(n, 2) - m
    return {
        "n": n, "m": m, "wiener": n * sigma // 2, "transmission_regular_k": sigma,
        "s1": 2 * m * sigma, "s2": m * sigma * sigma,
        "s1_co": 2 * non_edges * sigma, "s2_co": non_edges * sigma * sigma,
        "m1": n * degree * degree, "m2": m * degree * degree,
        "m1_co": 2 * non_edges * degree, "m2_co": non_edges * degree * degree,
    }


def independent_values(name: str, workdir, env) -> dict[str, int]:
    args = INPUTS[name]
    family = args[1]
    if family == "cycle":
        n = int(args[3])
        return regular_values(n, n, 2, n * n // 4)
    result = run_child(statusindex_argv(["closed-form", "--json", *args]), workdir, env)
    if result.returncode != 0:
        raise SystemExit(f"closed-form {args} exited {result.returncode}")
    cf = json.loads(result.stdout)
    values = regular_values(cf["n"], cf["m"], cf["degree"], int(cf["sigma"]))
    if values["wiener"] != int(cf["wiener"]):
        raise SystemExit(f"{name}: closed-form wiener disagrees with n*sigma/2")
    for index in ("s1", "s2", "s1_co", "s2_co"):
        if int(cf["indices"][index]["corrected"]) != values[index]:
            raise SystemExit(f"{name}: closed-form {index} disagrees with the regular formula")
    return values


def main() -> int:
    env = child_env()
    workdir = WORK / f"record-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    expected: dict = {"inputs": {}, "commands": {}}
    try:
        for name, args in INPUTS.items():
            result = run_child(statusindex_argv(["generate", *args, "-o", name]), workdir, env)
            if result.returncode != 0:
                raise SystemExit(f"generate {args} exited {result.returncode}")
            expected["inputs"][name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        for workload_name, workload in workloads(seed=0).items():
            for argv in workload.commands:
                if "random" in argv:
                    continue  # seed-dependent; checked by invariants instead
                result = run_child(statusindex_argv(argv), workdir, env)
                if result.returncode != 0:
                    raise SystemExit(f"{command_key(argv)} exited {result.returncode}")
                values = extract(argv, result.stdout)
                if argv[0] == "compute":
                    name = argv[-1]
                    want = independent_values(name, workdir, env)
                    want["transmission"] = run_length_encode([want["transmission_regular_k"]] * want["n"])
                    if name in KNOWN_DIAMETERS:
                        want["diameter"] = KNOWN_DIAMETERS[name]
                    wrong = sorted(k for k in want if values.get(k) != want[k])
                    if wrong:
                        raise SystemExit(f"{command_key(argv)}: {wrong} disagree with the independent route")
                elif values.get("summary", {}).get("hard_failures"):
                    raise SystemExit(f"{command_key(argv)}: hard failures {values['summary']}")
                expected["commands"][command_key(argv)] = values
                print(f"{workload_name}: {command_key(argv)}: "
                      f"{values.get('summary', 'cross-checked' if argv[0] == 'compute' else 'ok')}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
