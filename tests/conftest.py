from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from statusindex import Graph, VerificationReport, verify_grid

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True, scope="session")
def src_on_subprocess_path():
    """`python -m statusindex` subprocesses import the package from src/
    too, as the tests do through pyproject's pytest ``pythonpath``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"), prepend=os.pathsep)
        yield


#: Seconds one test may run before it fails; the slowest takes about 2.5.
TEST_TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """A test ran longer than TEST_TIME_LIMIT. Not an ``Exception``:
    Hypothesis would take one for a failing example and shrink it,
    running the hanging example again after the alarm has gone off."""


def _time_limit_exceeded(signum, frame):
    if frame.f_lineno is None:
        # Python 3.11 gives some jumps no line number, and pytest cannot
        # render a traceback entry without one: stop at the next check.
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        return
    raise TimeLimitExceeded(f"the test ran longer than {TEST_TIME_LIMIT} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs longer than TEST_TIME_LIMIT, so a fault that
    keeps a loop from ending (an engine whose sets never settle) fails
    the suite instead of hanging it. Armed only where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_exceeded)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


@st.composite
def long_graphs(draw, max_n=60):
    """Strategy: connected graphs of long diameter. Each vertex v >= 1
    joins one of v - 3 .. v - 1, and up to 4 chords join random pairs."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(max(0, v - 3), v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=4)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)
