"""Fixtures shared by the test modules."""
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from misosec import channel


@pytest.fixture
def blocked_pool(monkeypatch):
    """A one-worker chunk pool whose worker waits until the yielded event is set,
    so the calling thread runs every task it queues until then."""
    release = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as busy:
        busy.submit(release.wait, 60)
        monkeypatch.setattr(channel, "_POOL", busy)
        try:
            yield busy, release
        finally:
            release.set()


def suite_bits(result):
    """Everything a verify result reports, in a form that compares bit for bit:
    each check's name, grid, margins and worst point, the optimizer's
    deviation and the exit code."""
    checks = tuple(
        (name, report.grid, report._margins.tobytes(), report.worst.point)
        for name, report in result.checks
    )
    return checks, repr(result.optimizer_deviation), result.exit_code
