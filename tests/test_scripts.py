"""Smoke tests: the scripts under scripts/ run to completion on small inputs."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300, check=False,
    )


def test_verification_grid_is_clean():
    result = run_script("run_verification_grid.py", "--count", "5")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "result: clean"


def test_lattice_orientation_survey():
    result = run_script("lattice_orientation_survey.py", "--max-rows", "4", "--max-ring", "6")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:5]]
    assert [(r[0], r[1], r[2], r[-1]) for r in rows] == [
        ("2", "4", "True", "direct"),
        ("2", "6", "True", "direct"),
        ("4", "4", "True", "both"),
        ("4", "6", "True", "direct"),
    ]
