"""Fixtures and helpers shared by the test modules."""
import os
from pathlib import Path

import pytest

from misosec import channel


@pytest.fixture
def blocked_pool():
    """Take the chunk pool as a call using its workers does, until the yielded
    release() is called: until then every pool call finds the workers taken
    and runs all its tasks in the calling thread, in list order."""
    lock = channel._POOL_LOCK
    assert lock.acquire(timeout=60)
    held = True

    def release():
        nonlocal held
        if held:
            held = False
            lock.release()

    try:
        yield release
    finally:
        release()


@pytest.fixture
def caller_only(blocked_pool):
    """No worker runs a task while the test runs. A patch made after the
    workers forked never reaches them, so a test that patches what a task runs
    (to count draws, say) takes this; the calling thread runs the same tasks."""


def suite_bits(result):
    """Everything a verify result reports, in a form that compares bit for bit:
    each check's name, grid, margins and worst point, the optimizer's
    deviation and the exit code."""
    checks = tuple(
        (name, report.grid, report._margins.tobytes(), report.worst.point)
        for name, report in result.checks
    )
    return checks, repr(result.optimizer_deviation), result.exit_code


def python_env():
    """The environment of a fresh interpreter that imports the package from
    this checkout's source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
