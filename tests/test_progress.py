"""Scripted/replay progress sources: accrual, freezing, termination, replay."""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlockstep.core import MAX_CHECK_PERIOD_US, Action, Role, StaggeringSample
from softlockstep.formats import ReplaySource
from softlockstep.progress import (
    ExitKind,
    ExitStatus,
    RealClock,
    ScriptedSource,
)
from softlockstep.sim import Schedule


def scripted(deltas, role=Role.HEAD, length=None, latency=0):
    """A source whose replica `role` plays deltas; the other one has none."""
    if role is Role.HEAD:
        schedule = Schedule.of(deltas, [], suspend_latency_ticks=latency, head_length=length)
    else:
        schedule = Schedule.of([], deltas, suspend_latency_ticks=latency, trail_length=length)
    return ScriptedSource(schedule)


def test_running_replica_accrues_per_tick_deltas():
    source = scripted([5, 10, 0, 7])
    assert source.read_count(Role.HEAD) == 0
    source.advance(1)
    assert source.read_count(Role.HEAD) == 5
    source.advance(3)
    assert source.read_count(Role.HEAD) == 22


def test_the_trail_accrues_nothing_until_resume():
    source = scripted([5, 5, 5, 5], role=Role.TRAIL)
    source.advance(2)
    assert source.read_count(Role.TRAIL) == 0
    source.resume(Role.TRAIL)
    source.advance(1)  # resume at tick 2 takes effect from tick 3
    assert source.read_count(Role.TRAIL) == 5


def test_suspend_latency_window_is_exact():
    # Suspend at tick k with latency L: the replica accrues ticks k+1 .. k+L
    # and its count is frozen from tick k+L+1 until the next resume.
    source = scripted([1] * 12, latency=2)
    source.advance(3)
    source.suspend(Role.HEAD)  # k = 3, so ticks 4 and 5 still land
    source.advance(2)
    assert source.read_count(Role.HEAD) == 5
    for _ in range(3):  # ticks 6, 7, 8: frozen, byte-for-byte constant
        source.advance(1)
        assert source.read_count(Role.HEAD) == 5
    source.resume(Role.HEAD)
    source.advance(2)
    assert source.read_count(Role.HEAD) == 7


def test_suspend_is_idempotent_and_does_not_extend_the_window():
    source = scripted([1] * 8, latency=2)
    source.advance(1)
    source.suspend(Role.HEAD)  # freezes from tick 4
    source.advance(2)
    source.suspend(Role.HEAD)  # already pending: must not re-arm to tick 6
    source.advance(3)
    assert source.read_count(Role.HEAD) == 3


def test_resume_while_running_is_a_no_op():
    source = scripted([2, 2, 2])
    source.advance(1)
    source.resume(Role.HEAD)
    source.advance(1)
    assert source.read_count(Role.HEAD) == 4


def test_suspending_the_suspended_trail_keeps_the_original_freeze():
    source = scripted([3, 3, 3], role=Role.TRAIL, latency=1)
    source.advance(1)
    source.suspend(Role.TRAIL)
    source.advance(2)
    assert source.read_count(Role.TRAIL) == 0


def test_termination_by_stream_exhaustion():
    source = scripted([1, 1])
    assert source.exit_status(Role.HEAD) is None
    source.advance(1)
    assert source.exit_status(Role.HEAD) is None
    source.advance(1)
    assert source.exit_status(Role.HEAD) == ExitStatus(ExitKind.SUCCESS)
    source.advance(2)  # past the stream: count must not move
    assert source.read_count(Role.HEAD) == 2


def test_termination_by_length_clamps_the_final_delta():
    source = scripted([5, 5, 5], length=8)
    source.advance(2)
    assert source.read_count(Role.HEAD) == 8  # second delta clamped to 3
    assert source.exit_status(Role.HEAD).success
    source.advance(1)
    assert source.read_count(Role.HEAD) == 8


def test_suspended_replica_still_terminates_on_stream_exhaustion():
    source = scripted([1, 1], role=Role.TRAIL)
    source.advance(2)
    assert source.exit_status(Role.TRAIL) is not None
    assert source.read_count(Role.TRAIL) == 0


@settings(max_examples=200, deadline=None)
@given(
    deltas=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=12),
    ops=st.lists(st.sampled_from(["tick", "suspend", "resume"]), min_size=1, max_size=30),
    latency=st.integers(min_value=0, max_value=3),
    role=st.sampled_from(list(Role)),
)
def test_read_count_is_monotone_under_any_op_sequence(deltas, ops, latency, role):
    source = scripted(deltas, role=role, latency=latency)
    last = source.read_count(role)
    assert last == 0
    for op in ops:
        if op == "tick":
            source.advance(1)
        elif op == "suspend":
            source.suspend(role)
        else:
            source.resume(role)
        now = source.read_count(role)
        assert now >= last
        last = now


@settings(max_examples=200, deadline=None)
@given(
    deltas=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=12),
    suspend_at=st.integers(min_value=0, max_value=6),
    latency=st.integers(min_value=0, max_value=3),
    hold=st.integers(min_value=1, max_value=6),
)
def test_suspension_freezes_exactly_after_the_latency(deltas, suspend_at, latency, hold):
    # After the latency window closes the count must not drift by even one
    # unit for as long as the suspension holds.
    source = scripted(deltas, latency=latency)
    source.advance(suspend_at)
    source.suspend(Role.HEAD)
    source.advance(latency)
    frozen = source.read_count(Role.HEAD)
    for _ in range(hold):
        source.advance(1)
        assert source.read_count(Role.HEAD) == frozen


def test_scripted_clock_advances_whole_periods():
    source = ScriptedSource(Schedule.of([1] * 10, [], period_ticks=3))
    assert source.now_ns() == 0
    source.wait_one_period()
    assert source.tick == 3
    assert source.now_ns() == 3000  # TICK_NS = 1000


def test_two_replica_source_tracks_roles_independently():
    source = ScriptedSource(Schedule.of([10, 10], [10, 10]))
    source.advance(2)
    assert source.read_count(Role.HEAD) == 20
    assert source.read_count(Role.TRAIL) == 0


def replay_samples():
    rows = [
        (0, 1000, 100, 0, Action.NONE),
        (1, 2000, 200, 0, Action.RESUME),
        (2, 3000, 300, 100, Action.NONE),
        (3, 4000, 300, 200, Action.HEAD_DONE),
        (4, 5000, 300, 300, Action.TRAIL_DONE),
    ]
    return [StaggeringSample(*row) for row in rows]


def test_replay_source_reproduces_counts_and_terminations():
    source = ReplaySource(replay_samples())
    head, trail = Role.HEAD, Role.TRAIL

    assert source.exit_status(head) is None
    seen = []
    for _ in range(5):
        source.wait_one_period()
        seen.append((source.now_ns(), source.read_count(head), source.read_count(trail)))
    assert seen == [
        (1000, 100, 0),
        (2000, 200, 0),
        (3000, 300, 100),
        (4000, 300, 200),
        (5000, 300, 300),
    ]
    assert source.exit_status(head).success
    assert source.exit_status(trail) is not None


def test_replay_termination_lands_at_the_recorded_interval():
    source = ReplaySource(replay_samples())
    head, trail = Role.HEAD, Role.TRAIL
    for _ in range(4):  # steps to index 3, the HEAD_DONE interval
        source.wait_one_period()
    assert source.exit_status(head) is not None
    assert source.exit_status(trail) is None


def test_replay_step_clamps_at_the_last_sample():
    source = ReplaySource(replay_samples())
    for _ in range(50):
        source.wait_one_period()
    assert source.index == 4
    assert source.read_count(Role.HEAD) == 300


def test_replay_suspend_resume_are_no_ops():
    source = ReplaySource(replay_samples())
    head = Role.HEAD
    source.wait_one_period()
    source.suspend(head)
    source.wait_one_period()
    assert source.read_count(head) == 200


def test_exit_status_failure_causes():
    assert ExitStatus(ExitKind.SUCCESS).success
    assert ExitStatus(ExitKind.CRASH, code=9).failure_cause == "crash"
    assert ExitStatus(ExitKind.NONZERO_EXIT, code=1).failure_cause == "nonzero-exit"
    assert not ExitStatus(ExitKind.NONZERO_EXIT, code=1).success


def test_real_clock_waits_at_least_one_period():
    clock = RealClock(period_us=20_000)
    before = clock.now_ns()
    start = time.monotonic()
    clock.wait_one_period()
    elapsed = time.monotonic() - start
    assert elapsed >= 0.018
    assert clock.now_ns() >= before


@pytest.fixture
def pipe():
    read_fd, write_fd = os.pipe()
    yield read_fd, write_fd
    for fd in (read_fd, write_fd):
        try:
            os.close(fd)
        except OSError:
            pass


def timed_wait(clock) -> float:
    start = time.monotonic()
    clock.wait_one_period()
    return time.monotonic() - start


def test_a_readable_report_pipe_ends_the_wait_once(pipe):
    read_fd, write_fd = pipe
    clock = RealClock(period_us=100_000, report_fds=[read_fd])
    os.write(write_fd, b"\0")
    assert timed_wait(clock) < 0.050
    # Unread, the pipe stays readable; unregistered, it ends no further wait.
    assert timed_wait(clock) >= 0.095


def test_a_pipe_at_end_of_file_cannot_spin_the_loop(pipe):
    read_fd, write_fd = pipe
    clock = RealClock(period_us=100_000, report_fds=[read_fd])
    os.close(write_fd)
    assert timed_wait(clock) < 0.050
    assert timed_wait(clock) >= 0.095


def test_a_quiet_pipe_waits_the_whole_period_sub_millisecond_rest_included(pipe):
    clock = RealClock(period_us=20_700, report_fds=[pipe[0]])
    assert timed_wait(clock) >= 0.0205


def test_a_period_past_the_poll_range_is_clamped(pipe):
    # poll() refuses a timeout above 2**31 - 1 ms with OverflowError.
    read_fd, write_fd = pipe
    clock = RealClock(period_us=MAX_CHECK_PERIOD_US, report_fds=[read_fd])
    os.write(write_fd, b"\0")
    assert timed_wait(clock) < 0.050
