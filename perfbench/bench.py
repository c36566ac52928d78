"""Workloads, value checks and the subprocess runner shared by the
benchmark runner (``run.py``) and the traced run (``spans.py``)."""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EXPECTED_PATH = HERE / "expected.json"

#: The set-up step repeats at least this often and for at least this
#: long; setup_s is the median repetition. The time floor gives the
#: workloads with a sub-second set-up enough samples for a steady median.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0
#: Fresh-interpreter import probes in a traced run; cli.startup_s is their median.
STARTUP_PROBES = 5

#: Input files, each written by ``statusindex generate`` with these arguments.
INPUTS: dict[str, list[str]] = {
    "hypercube11.edges": ["--family", "hypercube", "--n", "11"],
    "nanotorus30x40.edges": ["--family", "nanotorus", "--p", "30", "--q", "40"],
    "cycle1200.edges": ["--family", "cycle", "--n", "1200"],
    "intersection13_4.edges": ["--family", "intersection", "--p", "13", "--t", "4"],
    "intersection12_4.edges": ["--family", "intersection", "--p", "12", "--t", "4"],
    "nanotorus20x20.edges": ["--family", "nanotorus", "--p", "20", "--q", "20"],
}

#: Pinned family ranges for verify-families; pinned so that widening
#: the default grid does not change the workload.
FAMILY_RANGES: list[list[str]] = [
    ["--family", "hypercube", "--n", "1..10"],
    ["--family", "kneser", "--p", "5..11", "--k", "2..5"],
    ["--family", "intersection", "--p", "3..12", "--t", "2..4"],
    ["--family", "nanotorus", "--p", "2..16", "--q", "2..16"],
]

#: Random-corpus size per verify command of the checks workload.
RANDOM_COUNT = 5000


@dataclass(frozen=True)
class Workload:
    inputs: tuple[str, ...]
    commands: tuple[tuple[str, ...], ...]


def workloads(seed: int) -> dict[str, Workload]:
    """The workload table. The seed reaches the program only as the
    ``--seed`` of the random corpora; every other input is fixed."""
    random_verify = ("verify", "--json", "--family", "random",
                     "--count", str(RANDOM_COUNT), "--seed", str(seed))
    return {
        "compute-sparse": Workload(
            inputs=("hypercube11.edges", "nanotorus30x40.edges", "cycle1200.edges"),
            commands=(
                ("compute", "--json", "hypercube11.edges"),
                ("compute", "--json", "nanotorus30x40.edges"),
                ("compute", "--json", "cycle1200.edges"),
            ),
        ),
        "compute-dense": Workload(
            inputs=("intersection13_4.edges", "intersection12_4.edges"),
            commands=(
                ("compute", "--json", "intersection13_4.edges"),
                ("compute", "--json", "intersection12_4.edges"),
            ),
        ),
        "verify-families": Workload(
            inputs=(),
            commands=tuple(
                ("verify", "--json", *mode, *ranges)
                for mode in ([], ["--mode", "as-printed"])
                for ranges in FAMILY_RANGES
            ),
        ),
        "checks": Workload(
            inputs=("nanotorus20x20.edges",),
            commands=(
                random_verify,
                random_verify + ("--dense",),
                ("identities", "--json", "nanotorus20x20.edges"),
                ("bounds", "--json", "nanotorus20x20.edges"),
            ),
        ),
    }


def command_key(argv: tuple[str, ...] | list[str]) -> str:
    return " ".join(argv)


def run_length_encode(values: list[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for value in values:
        if runs and runs[-1][0] == value:
            runs[-1][1] += 1
        else:
            runs.append([value, 1])
    return runs


def case_digest(cases: list[dict]) -> str:
    """Digest of the verification cases' values. Notes are left out so
    that added provenance text does not count as a changed result."""
    rows = sorted(
        (c["case"], c["index"], c["mode"], int(c["oracle"]), int(c["formula"]),
         bool(c["match"]), bool(c["registered_erratum"]))
        for c in cases
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def compute_values(payload: dict) -> dict:
    """The checked values of ``compute --json``, big integers as ints."""
    values = {
        key: int(value) if value is not None else None
        for key, value in payload.items() if key != "transmission"
    }
    values["transmission"] = run_length_encode([int(s) for s in payload["transmission"]])
    return values


def report_values(payload: dict) -> dict:
    """The checked values of a verification report."""
    return {"summary": payload["summary"], "cases_sha256": case_digest(payload["cases"])}


def bounds_values(payload: dict) -> dict:
    return {key: value if isinstance(value, bool) else int(value)
            for key, value in payload.items()}


def extract(argv: tuple[str, ...], stdout: str) -> dict:
    """The values a command's output is checked on."""
    payload = json.loads(stdout)
    if argv[0] == "compute":
        return compute_values(payload)
    if argv[0] == "bounds":
        return bounds_values(payload)
    return report_values(payload)


def check(argv: tuple[str, ...], returncode: int, stdout: str, expected: dict) -> str | None:
    """None when the command's output is right, else what is wrong."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = extract(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if "random" in argv:
        summary = got["summary"]
        if summary["cases"] <= 0 or summary["hard_failures"] != 0:
            return f"random corpus summary {summary}"
        if summary["passed"] + summary["registered_errata"] != summary["cases"]:
            return f"random corpus summary does not add up: {summary}"
        return None
    want = expected["commands"].get(command_key(argv))
    if want is None:
        return "no expected values recorded for this command"
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return f"values differ from the recorded ones: {diff}"
    if "summary" in got and got["summary"]["hard_failures"] != 0:
        return f"hard failures: {got['summary']}"
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> OpResult:
    """Run one command to completion, stdout to a file; wall clock from
    spawn to reap, CPU and max RSS from the child's own rusage."""
    out_path = cwd / ".stdout"
    with open(out_path, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return OpResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        stdout=stdout,
    )


def statusindex_argv(argv: tuple[str, ...] | list[str]) -> list[str]:
    return [sys.executable, "-m", "statusindex", *argv]


IMPORT_PROBE = [sys.executable, "-c", "import statusindex"]
REFERENCE = [sys.executable, str(HERE / "reference.py")]


@dataclass
class Tally:
    """Commands attempted and failed in this run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


def setup(workload: Workload, workdir: Path, env: dict[str, str],
          expected: dict, tally: Tally) -> list[float]:
    """Write the workload's input files; returns one time per repetition.

    Each repetition is a fresh-interpreter import check followed by one
    ``generate`` per input file. The files must match the recorded
    digests, so every later command reads the inputs it was checked on.
    """
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        probe = run_child(IMPORT_PROBE, workdir, env)
        tally.record("import statusindex", None if probe.returncode == 0
                     else f"exit code {probe.returncode}")
        for name in workload.inputs:
            argv = ("generate", *INPUTS[name], "-o", name)
            result = run_child(statusindex_argv(argv), workdir, env)
            tally.record(command_key(argv), None if result.returncode == 0
                         else f"exit code {result.returncode}")
        times.append(time.perf_counter() - start)
    for name in workload.inputs:
        path = workdir / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        tally.record(f"input {name}", None if digest == expected["inputs"][name]
                     else "generated file differs from the recorded one")
    return times


@dataclass
class Samples:
    """Per-command samples over repetitions of a workload's list, each
    with the reference task timed just before it."""

    wall: dict[int, list[float]] = field(default_factory=dict)
    cpu: dict[int, list[float]] = field(default_factory=dict)
    rss: dict[int, list[float]] = field(default_factory=dict)
    wall_ref: dict[int, list[float]] = field(default_factory=dict)
    cpu_ref: dict[int, list[float]] = field(default_factory=dict)
    ref_walls: list[float] = field(default_factory=list)
    rep_walls: list[float] = field(default_factory=list)

    def add(self, index: int, result: OpResult, ref: OpResult) -> None:
        self.wall.setdefault(index, []).append(result.wall_s)
        self.cpu.setdefault(index, []).append(result.cpu_s)
        self.rss.setdefault(index, []).append(result.rss_mb)
        self.wall_ref.setdefault(index, []).append(result.wall_s / ref.wall_s)
        self.cpu_ref.setdefault(index, []).append(result.cpu_s / ref.cpu_s)
        self.ref_walls.append(ref.wall_s)

    @staticmethod
    def _sum_of_medians(per_command: dict[int, list[float]]) -> float:
        return sum(statistics.median(v) for v in per_command.values())

    def wall_s(self) -> float:
        return self._sum_of_medians(self.wall)

    def cpu_s(self) -> float:
        return self._sum_of_medians(self.cpu)

    def wall_in_ref(self) -> float:
        """wall_s in units of the reference task's wall time."""
        return self._sum_of_medians(self.wall_ref)

    def cpu_in_ref(self) -> float:
        """cpu_s in units of the reference task's CPU time."""
        return self._sum_of_medians(self.cpu_ref)

    def ref_s(self) -> float:
        return statistics.median(self.ref_walls)

    def peak_rss_mb(self) -> float:
        return max(statistics.median(v) for v in self.rss.values())


def untraced_rep(workload: Workload, workdir: Path, env: dict[str, str],
                 expected: dict, samples: Samples, tally: Tally) -> None:
    start = time.perf_counter()
    for index, argv in enumerate(workload.commands):
        ref = run_child(REFERENCE, workdir, env)
        tally.record("reference task", None if ref.returncode == 0
                     else f"exit code {ref.returncode}")
        result = run_child(statusindex_argv(argv), workdir, env)
        samples.add(index, result, ref)
        tally.record(command_key(argv), check(argv, result.returncode, result.stdout, expected))
    samples.rep_walls.append(time.perf_counter() - start)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
