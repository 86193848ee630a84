"""Fixtures shared by the test modules."""

import contextlib
import os
import signal
import threading

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


@pytest.fixture(autouse=True)
def leaves_no_child():
    """Fail a test that leaves a child process behind, then kill and reap what it left.

    Reaped here, a child cannot fail the tests after the one that left it.
    """
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    with open(f"/proc/self/task/{threading.get_native_id()}/children") as f:
        left = [int(pid) for pid in f.read().split()]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pytest.fail(f"child processes left behind: {left}")


@pytest.fixture(autouse=True)
def leaves_no_descriptor():
    """Fail a test that leaves a file descriptor open that it did not find."""
    before = set(os.listdir("/proc/self/fd"))
    yield
    extra = set(os.listdir("/proc/self/fd")) - before
    if extra:
        links = []
        for fd in sorted(extra, key=int):
            try:
                links.append(f"{fd} -> {os.readlink(f'/proc/self/fd/{fd}')}")
            except OSError:  # the descriptor listdir itself used
                pass
        if links:
            pytest.fail(f"descriptors left open: {', '.join(links)}")
