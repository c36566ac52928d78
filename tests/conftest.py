from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from statusindex import VerificationReport, verify_grid

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True, scope="session")
def src_on_subprocess_path():
    """`python -m statusindex` subprocesses import the package from src/
    too, as the tests do through pyproject's pytest ``pythonpath``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"), prepend=os.pathsep)
        yield


@pytest.fixture
def demo5_path() -> Path:
    return DATA_DIR / "demo5.edges"


@pytest.fixture
def c5_path() -> Path:
    return DATA_DIR / "c5.edges"


@pytest.fixture
def p4_path() -> Path:
    return DATA_DIR / "p4.edges"


@pytest.fixture(scope="session")
def grid_corrected() -> VerificationReport:
    """The default grid checked once per session in corrected mode; the
    tests that use it only read it."""
    return verify_grid("corrected")


@pytest.fixture(scope="session")
def grid_as_printed() -> VerificationReport:
    """The default grid checked once per session in as-printed mode."""
    return verify_grid("as_printed")
