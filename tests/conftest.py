"""Shared test reporting and a wall-clock limit for calls that could hang.

The acceptance checks in test_acceptance.py each record one pass/fail line;
the lines are replayed in a terminal section after the run so the gate status
is visible without -s.
"""

import contextlib
import signal

import pytest

_LINES = []


def record_criterion(num, title, ok, detail=""):
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {title}"
    if detail:
        line += f" ({detail})"
    _LINES.append(line)
    return line


@pytest.fixture
def criterion():
    def check(num, title, ok, detail=""):
        line = record_criterion(num, title, bool(ok), detail)
        print(line)
        assert ok, line

    return check


@pytest.fixture
def time_limit():
    """time_limit(seconds) bounds a block by SIGALRM, failing the test when it
    expires; where the platform has no SIGALRM the block runs unbounded."""

    @contextlib.contextmanager
    def limit(seconds):
        if not hasattr(signal, "SIGALRM"):
            yield
            return

        def expire(signum, frame):
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.line(line)
