"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def _fails_after(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fails_after():
    """fails_after(seconds) turns a hang inside its `with` block into a test failure.

    SIGALRM interrupts Python code between bytecodes; one long C call (a huge
    integer power, say) still runs to its end before the TimeoutError.
    """
    return _fails_after
