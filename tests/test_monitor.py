"""Enforcement loop: simulator parity, replay fidelity, verdicts, trace CSV."""

import errno
import faulthandler
import gc
import io
import mmap
import os
import resource
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlockstep import integrity, linuxperf, monitor, replication
from softlockstep.core import (
    MAX_CHECK_PERIOD_US,
    MAX_OUTPUTS,
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    PayloadSpec,
    Role,
    StaggeringSample,
    Verdict,
    VerdictKind,
)
from softlockstep.formats import TRACE_HEADER, read_trace, replay, write_trace
from softlockstep.integrity import FaultSpec, compare_outputs, inject_fault
from softlockstep.monitor import (
    Trace,
    enforcement_loop,
    protect,
    run_scripted,
)
from softlockstep.progress import CounterUnavailable, ExitKind, ExitStatus, ScriptedSource
from softlockstep.replication import PinningFailure, spawn_replicas
from softlockstep.sim import Schedule, simulate
from softlockstep.workloads import Workload, checksum_workload, direct_run, spin_workload

try:
    linuxperf.probe_counter("auto")
    _counter_reason = ""
except CounterUnavailable as exc:
    _counter_reason = str(exc)

requires_counter = pytest.mark.skipif(
    bool(_counter_reason), reason=f"no progress counter: {_counter_reason}"
)


def cfg(threshold, **kwargs):
    return MonitorConfig(threshold_instructions=threshold, **kwargs)


OVERTAKE = Schedule.of([5, 0, 0, 0, 5, 5], [0, 3, 3, 0, 0, 0])


# ---------------------------------------------------------------- scripted

schedules = st.builds(
    Schedule.of,
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
    period_ticks=st.integers(min_value=1, max_value=3),
    suspend_latency_ticks=st.integers(min_value=0, max_value=3),
)


@settings(max_examples=300, deadline=None)
@given(schedule=schedules, threshold=st.integers(min_value=1, max_value=12))
def test_live_loop_matches_simulator_sample_for_sample(schedule, threshold):
    # The scripted backend drives the real enforcement loop; its trace must
    # equal the simulator's prediction field for field.
    expected = simulate(schedule, threshold=threshold)
    verdict, trace = run_scripted(schedule, cfg(threshold))
    assert trace.samples == expected.samples
    assert trace.validate() == []


@settings(max_examples=100, deadline=None)
@given(schedule=schedules, threshold=st.integers(min_value=1, max_value=12))
def test_live_loop_matches_simulator_under_abort_policy(schedule, threshold):
    expected = simulate(schedule, threshold=threshold,
                        diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    _, trace = run_scripted(
        schedule, cfg(threshold, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    )
    assert trace.samples == expected.samples


@settings(max_examples=300, deadline=None)
@given(schedule=schedules, threshold=st.integers(min_value=1, max_value=12))
def test_sampled_staggering_has_a_floor_after_the_first_release(schedule, threshold):
    # Once the trail has been released at least once, no sample while the
    # head lives can read below threshold - r_max * (period + latency).
    _, trace = run_scripted(schedule, cfg(threshold))
    acts = [s.action for s in trace.samples]
    if Action.RESUME not in acts:
        return
    r_max = max(schedule.trail_deltas, default=0)
    floor = threshold - r_max * (schedule.period_ticks + schedule.suspend_latency_ticks)
    for sample in trace.samples[acts.index(Action.RESUME):]:
        if sample.action is Action.HEAD_DONE:
            break
        assert sample.staggering >= floor


def test_head_completion_releases_a_suspended_trail():
    # Threshold is unreachable, so only head termination can free the trail.
    schedule = Schedule.of([100, 100], [1] * 20)
    verdict, trace = run_scripted(schedule, cfg(1000))
    acts = [s.action for s in trace.samples]
    done_at = acts.index(Action.HEAD_DONE)
    assert done_at == 1
    assert trace.samples[done_at].trail_count == 0
    assert trace.samples[-1].action is Action.TRAIL_DONE
    assert trace.samples[-1].trail_count == 18  # ran ticks 3..20 after release
    assert verdict.kind is VerdictKind.MATCH


def test_scripted_timeout_cuts_the_run_short():
    schedule = Schedule.of([1] * 10, [1] * 10)
    verdict, trace = run_scripted(schedule, cfg(1, run_timeout_us=3))
    assert verdict.kind is VerdictKind.TIMEOUT
    assert len(trace.samples) == 2  # checks at 1 us and 2 us; 3 us hits the deadline


def test_a_scripted_trace_records_the_schedules_own_period():
    # The config's 1000 us default is not the period of a scripted run:
    # its checks come every period_ticks ticks of 1 us.
    schedule = Schedule.of([1] * 6, [1] * 6, period_ticks=3)
    _, trace = run_scripted(schedule, cfg(1))
    assert [s.timestamp_ns for s in trace.samples][:2] == [3000, 6000]
    assert trace.check_period_us == 3


def test_abort_policy_turns_overtake_into_diversity_loss_verdict():
    verdict, trace = run_scripted(
        OVERTAKE, cfg(1, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    )
    assert verdict.kind is VerdictKind.DIVERSITY_LOSS
    assert verdict.loss_sample.staggering < 0
    assert trace.samples[-1].action is Action.DIVERSITY_LOSS


def test_record_policy_logs_losses_and_completes():
    verdict, trace = run_scripted(OVERTAKE, cfg(1))
    losses = [s for s in trace.samples if s.action is Action.DIVERSITY_LOSS]
    assert len(losses) == 2 and all(s.staggering == -1 for s in losses)
    assert trace.samples[-1].action is Action.TRAIL_DONE
    assert verdict.kind is VerdictKind.MATCH
    assert trace.validate() == []


def test_a_trail_that_overtakes_and_finishes_first_is_a_loss():
    schedule = Schedule.of([3] * 4 + [0] * 16, [0] * 4 + [9] * 16,
                           period_ticks=4, suspend_latency_ticks=4,
                           head_length=30, trail_length=20)
    _, trace = run_scripted(schedule, cfg(3))
    assert trace.samples == simulate(schedule, threshold=3).samples
    assert trace.samples[1].action is Action.DIVERSITY_LOSS
    assert trace.validate() == []
    verdict, trace = run_scripted(
        schedule, cfg(3, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    )
    assert verdict.kind is VerdictKind.DIVERSITY_LOSS
    assert (verdict.loss_sample.head_count, verdict.loss_sample.trail_count) == (12, 20)


def test_run_scripted_rejects_bad_schedule_and_config():
    with pytest.raises(ValueError):
        run_scripted(Schedule.of([1], [-1]), cfg(1))
    with pytest.raises(ValueError):
        run_scripted(Schedule.of([1], [1]), cfg(0))


def freeze_run(schedule, threshold, freeze=None):
    """The loop over a scripted schedule, with a freeze injected if given."""
    source = ScriptedSource(schedule)
    if freeze is not None:
        source = inject_fault(source, freeze)
    return enforcement_loop(source, cfg(threshold))


def test_a_trail_freeze_keeps_the_staggering_it_tests():
    # The loop holds the trail stopped through the whole 5-tick hold; the
    # hold's end must not wake it behind the loop's back.
    schedule = Schedule.of([1] * 60, [3] * 60)
    verdict, trace = freeze_run(schedule, 10, FaultSpec.freeze(Role.TRAIL, duration_us=5))
    assert verdict.kind is VerdictKind.MATCH
    assert trace.validate() == []
    assert trace.samples == freeze_run(schedule, 10)[1].samples
    assert all(s.action is not Action.DIVERSITY_LOSS for s in trace.samples)


def test_a_trail_freeze_holds_back_the_loops_resume_until_it_ends():
    # The loop resumes the trail at the tick-2 check, inside the hold that
    # ends at the tick-6 check: the trail accrues nothing before tick 7.
    schedule = Schedule.of([1] * 20, [1] * 20)
    _, trace = freeze_run(schedule, 2, FaultSpec.freeze(Role.TRAIL, duration_us=5))
    assert trace.samples[1].action is Action.RESUME
    assert [s.trail_count for s in trace.samples[:7]] == [0, 0, 0, 0, 0, 0, 1]
    assert trace.validate() == []


class _FlakyCounterSource:
    """Delegates to a scripted source until read_count starts failing."""

    def __init__(self, inner, fail_after):
        self._inner = inner
        self._reads_left = fail_after

    def read_count(self, role):
        if self._reads_left <= 0:
            raise OSError("counter fd went away")
        self._reads_left -= 1
        return self._inner.read_count(role)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_counter_failure_mid_run_aborts_with_replica_trouble():
    source = ScriptedSource(Schedule.of([1] * 10, [1] * 10))
    flaky = _FlakyCounterSource(source, fail_after=4)
    verdict, trace = enforcement_loop(flaky, cfg(100))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert verdict.failure_cause == "counter-failure"
    assert verdict.failed_role is Role.HEAD
    assert len(trace.samples) == 2  # two clean checks before the failure


class _FlakyPollSource:
    """Delegates to a scripted source; one replica's read or poll fails from a given check on."""

    def __init__(self, inner, role, method, fail_after):
        self._inner = inner
        self._role = role
        self._method = method
        self._calls_left = fail_after

    def __getattr__(self, name):
        call = getattr(self._inner, name)
        if name != self._method:
            return call

        def flaky(role):
            if role is self._role:
                if self._calls_left <= 0:
                    raise OSError(f"{name} failed")
                self._calls_left -= 1
            return call(role)

        return flaky


@pytest.mark.parametrize("role", [Role.HEAD, Role.TRAIL])
@pytest.mark.parametrize("method", ["read_count", "exit_status"])
def test_a_failed_read_or_poll_blames_the_replica_it_was_about(role, method):
    source = ScriptedSource(Schedule.of([1] * 10, [1] * 10))
    verdict, trace = enforcement_loop(_FlakyPollSource(source, role, method, fail_after=2),
                                      cfg(100))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert verdict.failure_cause == "counter-failure"
    assert verdict.failed_role is role
    assert len(trace.samples) == 2


@pytest.mark.parametrize("data", [b"", b"\0" * 4], ids=["eof", "four-bytes"])
def test_a_short_counter_read_is_an_unavailable_counter(data):
    # A perf fd whose event is in error state reads b"" (end of file).
    read_fd, write_fd = os.pipe()
    os.write(write_fd, data)
    os.close(write_fd)
    try:
        with pytest.raises(CounterUnavailable, match=f"{len(data)} bytes"):
            linuxperf.read_counter(read_fd)
    finally:
        os.close(read_fd)


class _BothFailSource(ScriptedSource):
    """A scripted source whose head and trail report failed exits from one check on."""

    def exit_status(self, role):
        if self.tick < 3:
            return super().exit_status(role)
        return ExitStatus(ExitKind.NONZERO_EXIT, 1) if role is Role.HEAD else ExitStatus(ExitKind.CRASH)


def test_a_failed_head_is_blamed_before_a_failed_trail():
    source = _BothFailSource(Schedule.of([1] * 10, [1] * 10))
    verdict, trace = enforcement_loop(source, cfg(100))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert verdict.failed_role is Role.HEAD
    assert verdict.failure_cause == "nonzero-exit"
    assert len(trace.samples) == 2


# ------------------------------------------------------------------ replay

def test_replay_reproduces_a_scripted_run_exactly():
    schedule = Schedule.of([100, 100, 0, 0, 100, 100, 100, 0], [50] * 8)
    config = cfg(150)
    _, trace = run_scripted(schedule, config)
    verdict, replayed = replay(trace, config)
    assert verdict.kind is VerdictKind.MATCH
    assert replayed.samples == trace.samples
    assert replayed.backend == "replay"


def test_replay_reproduces_an_aborted_run():
    config = cfg(1, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    recorded, trace = run_scripted(OVERTAKE, config)
    verdict, replayed = replay(trace, config)
    assert verdict.kind is VerdictKind.DIVERSITY_LOSS
    assert verdict == recorded
    assert replayed.samples == trace.samples


def test_replay_finds_the_terminations_of_a_trace_not_indexed_from_zero():
    # The done actions end the replay at their positions in the trace, not
    # at their interval indices, which a valid trace may start anywhere.
    verdict, trace = run_scripted(Schedule.of([5] * 6, [5] * 6), cfg(3))
    assert verdict.kind is VerdictKind.MATCH
    shifted = Trace([s._replace(interval_index=s.interval_index + 10) for s in trace.samples])
    assert shifted.validate() == []
    verdict, replayed = replay(shifted, cfg(3))
    assert verdict.kind is VerdictKind.MATCH
    assert replayed.samples == trace.samples


def test_replay_ignores_the_recorded_run_timeout():
    schedule = Schedule.of([100] * 6, [100] * 6)
    _, trace = run_scripted(schedule, cfg(150))
    verdict, replayed = replay(trace, cfg(150, run_timeout_us=1))
    assert verdict.kind is VerdictKind.MATCH
    assert replayed.samples == trace.samples


@pytest.mark.parametrize("schedule, recorded, replayed", [
    (Schedule.of([100] * 50, [100] * 50), cfg(150, run_timeout_us=10), cfg(150)),
    (OVERTAKE, cfg(1, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN), cfg(1)),
], ids=["timed-out", "aborted-replayed-under-record"])
def test_replay_times_out_where_an_unfinished_recording_ends(schedule, recorded, replayed,
                                                              fails_after):
    _, trace = run_scripted(schedule, recorded)
    assert Action.TRAIL_DONE not in [s.action for s in trace.samples]
    with fails_after(5):
        verdict, replayed_trace = replay(trace, replayed)
    assert verdict.kind is VerdictKind.TIMEOUT
    assert replayed_trace.samples == trace.samples


def test_replay_rejects_an_empty_trace():
    with pytest.raises(ValueError, match="no recorded samples"):
        replay(Trace(), cfg(1))


def test_replay_refuses_a_trace_that_validate_rejects():
    header = ",".join(TRACE_HEADER) + "\n"
    trace = read_trace(io.StringIO(header + "0,-5,5,1,4,NONE\n3,-9,6,1,5,NONE\n"))
    assert trace.validate() == ["timestamp -5 decreases", "timestamp -9 decreases"]
    with pytest.raises(ValueError, match="^timestamp -5 decreases; timestamp -9 decreases$"):
        replay(trace, cfg(1))


def test_replay_refuses_a_config_that_run_scripted_refuses():
    _, trace = run_scripted(Schedule.of([5, 5], [5, 5]), cfg(3))
    config = MonitorConfig(threshold_instructions=-7, check_period_us=-1, head_core=1, trail_core=1)
    with pytest.raises(ValueError) as raised:
        run_scripted(Schedule.of([5, 5], [5, 5]), config)
    with pytest.raises(ValueError, match="^threshold must be positive; check period must be "
                                         "positive; cores must be distinct") as replayed:
        replay(trace, config)
    assert str(replayed.value) == str(raised.value)


# --------------------------------------------------------------- trace CSV

def sample(interval, ts, head, trail, action):
    return StaggeringSample(interval, ts, head, trail, action)


def test_trace_csv_exact_format():
    trace = Trace(samples=[sample(3, 1000, 950_000_000, 740_000_000, Action.RESUME)])
    buf = io.StringIO()
    write_trace(trace, buf)
    assert buf.getvalue().splitlines() == [
        "interval,timestamp_ns,head_instr,trail_instr,staggering,action",
        "3,1000,950000000,740000000,210000000,RESUME",
    ]


@settings(max_examples=200, deadline=None)
@given(schedule=schedules, threshold=st.integers(min_value=1, max_value=12))
def test_trace_csv_round_trip_preserves_every_sample(schedule, threshold):
    verdict, trace = run_scripted(schedule, cfg(threshold))
    buf = io.StringIO()
    write_trace(trace, buf)
    parsed = read_trace(io.StringIO(buf.getvalue()))
    assert parsed.samples == trace.samples
    assert parsed.backend == "file"
    # Every run here completes, so its replay must reach the same verdict.
    replayed_verdict, replayed = replay(parsed, cfg(threshold))
    assert replayed.samples == trace.samples
    assert replayed_verdict == verdict == Verdict.match()


def test_trace_csv_round_trip_through_a_path(tmp_path):
    _, trace = run_scripted(Schedule.of([10, 10], [10, 10]), cfg(5))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert read_trace(path).samples == trace.samples


def test_empty_trace_is_a_header_only_file():
    buf = io.StringIO()
    write_trace(Trace(), buf)
    assert buf.getvalue() == ",".join(TRACE_HEADER) + "\n"
    assert read_trace(io.StringIO(buf.getvalue())).samples == []


def test_read_trace_rejects_malformed_input():
    with pytest.raises(ValueError, match="empty"):
        read_trace(io.StringIO(""))
    with pytest.raises(ValueError, match="header"):
        read_trace(io.StringIO("tick,head,trail\n"))
    header = ",".join(TRACE_HEADER) + "\n"
    with pytest.raises(ValueError, match="6 fields"):
        read_trace(io.StringIO(header + "0,0,1,1,0\n"))
    # staggering column must equal head - trail
    with pytest.raises(ValueError, match="staggering"):
        read_trace(io.StringIO(header + "0,0,5,1,3,NONE\n"))
    with pytest.raises(ValueError):
        read_trace(io.StringIO(header + "0,0,5,1,4,FROB\n"))


@pytest.mark.parametrize("row", ["0,0,-5,1,-6,NONE", "0,0,5,-1,6,NONE"],
                         ids=["head", "trail"])
def test_read_trace_refuses_negative_counts(row):
    # Refused when read, not later by replay's staggering rule.
    header = ",".join(TRACE_HEADER) + "\n"
    with pytest.raises(ValueError, match="row 3: progress counts must be non-negative"):
        read_trace(io.StringIO(header + "0,0,5,1,4,NONE\n" + row + "\n"))


@pytest.mark.parametrize("row, message", [
    ("0,0,-5,1,-6,NONE", "progress counts must be non-negative"),
    ("0,0,5,1,3,NONE", "staggering 3 != head 5 - trail 1"),
    ("0,0,5,x,4,NONE", "invalid literal for int"),
    ("0,0,5,1,4,FROB", "'FROB' is not a valid Action"),
    ("0,0,1,1,0", "expected 6 fields, got 5"),
], ids=["negative-count", "staggering", "not-an-integer", "unknown-action", "field-count"])
def test_read_trace_errors_name_the_file_line(row, message):
    # Blank lines are skipped, yet still count towards the line number.
    text = ",".join(TRACE_HEADER) + "\n\n\n" + row + "\n"
    with pytest.raises(ValueError, match=f"^row 4: {message}"):
        read_trace(io.StringIO(text))


def test_trace_validate_flags_illegal_structures():
    ok = Trace(samples=[
        sample(0, 10, 5, 0, Action.NONE),
        sample(1, 20, 10, 0, Action.RESUME),
        sample(2, 30, 11, 8, Action.SUSPEND),
        sample(3, 40, 20, 8, Action.RESUME),
        sample(4, 50, 25, 12, Action.HEAD_DONE),
        sample(5, 60, 25, 25, Action.TRAIL_DONE),
    ])
    assert ok.validate() == []

    assert Trace(samples=[
        sample(0, 10, 1, 0, Action.NONE),
        sample(0, 20, 2, 0, Action.NONE),
    ]).validate() == ["interval 0 not increasing"]

    assert "decreases" in Trace(samples=[
        sample(0, 20, 1, 0, Action.NONE),
        sample(1, 10, 2, 0, Action.NONE),
    ]).validate()[0]

    assert "suspend while suspended" in Trace(samples=[
        sample(0, 10, 1, 0, Action.SUSPEND),
    ]).validate()[0]

    assert "resume while running" in Trace(samples=[
        sample(0, 10, 5, 0, Action.RESUME),
        sample(1, 20, 9, 1, Action.RESUME),
    ]).validate()[0]

    assert "HEAD_DONE emitted twice" in Trace(samples=[
        sample(0, 10, 5, 0, Action.HEAD_DONE),
        sample(1, 20, 5, 3, Action.HEAD_DONE),
    ]).validate()[0]

    assert Trace(samples=[
        sample(0, 10, 5, 0, Action.HEAD_DONE),
        sample(1, 20, 5, 5, Action.TRAIL_DONE),
        sample(2, 30, 5, 5, Action.TRAIL_DONE),
    ]).validate() == ["TRAIL_DONE emitted twice"]

    # a loss check suspends, so a following RESUME is legal
    assert Trace(samples=[
        sample(0, 10, 5, 0, Action.RESUME),
        sample(1, 20, 5, 6, Action.DIVERSITY_LOSS),
        sample(2, 30, 9, 6, Action.RESUME),
    ]).validate() == []

    # ... and a following SUSPEND is not
    assert Trace(samples=[
        sample(0, 10, 5, 0, Action.RESUME),
        sample(1, 20, 5, 6, Action.DIVERSITY_LOSS),
        sample(2, 30, 5, 7, Action.SUSPEND),
    ]).validate() == ["interval 2: suspend while suspended"]

    # the head's end releases the trail, so a following RESUME is flagged
    assert Trace(samples=[
        sample(0, 10, 5, 0, Action.HEAD_DONE),
        sample(1, 20, 5, 3, Action.RESUME),
    ]).validate() == ["interval 1: resume while running"]


# ----------------------------------------------------------- real processes

REAL_CONFIG = MonitorConfig(threshold_instructions=2_000_000, check_period_us=200)


def run_protected(workload, config=REAL_CONFIG, **kwargs):
    outputs = [bytearray(size) for size in workload.payload.output_sizes]
    verdict, trace = protect(
        workload.computation,
        workload.payload.inputs,
        workload.payload.input_sizes,
        outputs,
        workload.payload.output_sizes,
        config,
        **kwargs,
    )
    return verdict, trace, outputs


@requires_counter
def test_protect_match_delivers_the_head_outputs():
    workload = checksum_workload(nbytes=4096)
    verdict, trace, outputs = run_protected(workload)
    assert verdict.kind is VerdictKind.MATCH
    assert [bytes(buf) for buf in outputs] == direct_run(workload)
    assert trace.validate() == []
    assert trace.backend == "process/" + linuxperf.probe_counter("auto")
    actions = [s.action for s in trace.samples]
    assert actions.count(Action.HEAD_DONE) == 1
    assert actions.count(Action.TRAIL_DONE) == 1


@requires_counter
def test_protect_replay_recomputes_the_recorded_actions():
    workload = checksum_workload(nbytes=4096)
    verdict, trace, _ = run_protected(workload)
    assert verdict.kind is VerdictKind.MATCH
    replayed_verdict, replayed = replay(trace, REAL_CONFIG)
    assert replayed_verdict.kind is VerdictKind.MATCH
    assert replayed.samples == trace.samples


@requires_counter
def test_protect_bitflip_mismatch_leaves_caller_buffers_untouched():
    workload = checksum_workload(nbytes=1024)
    verdict, trace, outputs = run_protected(
        workload, inject=FaultSpec.bit_flip(Role.TRAIL, 0, 3, 5)
    )
    assert verdict.kind is VerdictKind.MISMATCH
    assert verdict.mismatches == ((0, 3),)
    assert all(bytes(buf) == bytes(len(buf)) for buf in outputs)


@requires_counter
def test_protect_crash_injection_reports_replica_failure():
    workload = checksum_workload(nbytes=1024)
    verdict, _, _ = run_protected(workload, inject=FaultSpec.crash(Role.HEAD))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert verdict.failed_role is Role.HEAD
    assert verdict.failure_cause == "crash"


@requires_counter
@pytest.mark.parametrize("target", [Role.HEAD, Role.TRAIL])
def test_a_live_freeze_holds_its_target_still_and_the_run_still_matches(target):
    # The hold starts in the wait before the first check and is timed by the
    # session's clock: from a stop latency's slack on, every check inside it
    # reads the held replica's count unchanged, and the replica runs after it.
    hold_ns = 20_000_000
    workload = spin_workload(1_000_000)
    verdict, trace, outputs = run_protected(workload,
                                            inject=FaultSpec.freeze(target, hold_ns // 1000))
    assert verdict.kind is VerdictKind.MATCH
    assert [bytes(buf) for buf in outputs] == direct_run(workload)
    assert trace.validate() == []
    counts = [(s.timestamp_ns, s.head_count if target is Role.HEAD else s.trail_count)
              for s in trace.samples]
    start = counts[0][0]
    held = {count for ts, count in counts if start + hold_ns // 4 <= ts < start + hold_ns}
    assert len(held) == 1
    assert counts[-1][1] > held.pop()


def _instant(inputs, outputs):
    pass


@requires_counter
def test_a_crash_of_a_head_that_may_have_finished_is_always_a_head_crash():
    # The head runs from the spawn on, so an instant one has often reported
    # done before the crash is injected; the first check still sees the crash.
    for _ in range(20):
        verdict, trace = protect(_instant, [], [], [bytearray(4)], [4], REAL_CONFIG,
                                 inject=FaultSpec.crash(Role.HEAD))
        assert (verdict.kind, verdict.failed_role, verdict.failure_cause) == (
            VerdictKind.REPLICA_FAILURE, Role.HEAD, "crash")
        assert trace.samples == []


@requires_counter
def test_a_report_ends_the_wait_of_the_longest_check_period():
    # A fresh interpreter with a timeout: a loop that waits out the period
    # hangs for all practical purposes.
    script = (
        "from softlockstep.core import MonitorConfig, VerdictKind\n"
        "from softlockstep.monitor import protect\n"
        "from softlockstep.workloads import checksum_workload, direct_run\n"
        "w = checksum_workload(nbytes=1024)\n"
        "outputs = [bytearray(n) for n in w.payload.output_sizes]\n"
        f"config = MonitorConfig(threshold_instructions=2_000_000, check_period_us={MAX_CHECK_PERIOD_US})\n"
        "verdict, _ = protect(w.computation, w.payload.inputs, w.payload.input_sizes,\n"
        "                     outputs, w.payload.output_sizes, config)\n"
        "assert verdict.kind is VerdictKind.MATCH, verdict\n"
        "assert [bytes(b) for b in outputs] == direct_run(w)\n"
    )
    src = os.path.dirname(os.path.dirname(monitor.__file__))
    subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                   check=True, timeout=30)


_STDIO_CLOSED = """
import os, sys
os.close(0)
os.close(1)
from softlockstep.core import MonitorConfig
from softlockstep.monitor import protect

def fd1_open(inputs, outputs):
    try:
        os.fstat(1)
        outputs[0][:] = b"1"
    except OSError:
        outputs[0][:] = b"0"

def prints(inputs, outputs):
    print("out", flush=True)

config = MonitorConfig(threshold_instructions=10**12, run_timeout_us=2_000_000)
out = bytearray(1)
verdict, _ = protect(fd1_open, [], [], [out], [1], config)
sys.stderr.write(f"{verdict.describe()} {out.decode()}\\n")
verdict, _ = protect(prints, [], [], [bytearray(1)], [1], config)
sys.stderr.write(f"{verdict.describe()}\\n{verdict.detail}\\n")
"""


@requires_counter
def test_a_caller_without_stdin_and_stdout_lends_neither_slot_to_the_monitor(fails_after):
    # With fds 0 and 1 closed, a pipe, pidfd or counter fd the monitor opens
    # would take them: the head's report pipe would become its stdout, and
    # the trail would inherit what sat at fd 1. A replica must see fd 1
    # closed, as the caller does, and a print must fail as it would unprotected.
    # A threshold no head reaches: the failing head never releases the trail,
    # whose failure the loop could otherwise see first.
    src = os.path.dirname(os.path.dirname(monitor.__file__))
    with fails_after(20):
        done = subprocess.run([sys.executable, "-c", _STDIO_CLOSED], stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src}, text=True)
    first, second = done.stderr.splitlines()[:2]
    assert first == "MATCH 0"
    assert second == "REPLICA_FAILURE (head: nonzero-exit)"
    assert "[Errno 9] Bad file descriptor" in done.stderr


def _late_boom(inputs, outputs):
    # Fail while the loop waits, and exit slowly: the exit frees the ballast
    # before it closes the report pipe, so the check that the traceback wakes
    # finds the replica still alive, and only its exit can end the next wait.
    ballast = b"\1" * (64 << 20)  # noqa: F841
    time.sleep(0.05)
    raise ValueError("boom-6")


@requires_counter
def test_a_failing_replica_is_reported_within_one_period_of_its_exit():
    period_s = 1.0
    started = time.monotonic()
    verdict, _ = protect(_late_boom, [], [], [bytearray(4)], [4],
                         cfg(10**12, check_period_us=int(period_s * 1e6)))
    assert time.monotonic() - started < period_s / 2
    assert (verdict.failed_role, verdict.failure_cause) == (Role.HEAD, "nonzero-exit")
    assert "ValueError: boom-6" in verdict.detail


@requires_counter
def test_the_trail_is_killed_before_the_copy_back_and_the_head_after_it(monkeypatch):
    calls = []
    pids = {}
    real_kill, real_waitpid = os.kill, os.waitpid
    real_read_all_into = replication.ReplicaOutputs.read_all_into

    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        pids.update((session.pid(role), role.value) for role in Role)
        return session

    def kill(pid, signum):
        if signum == signal.SIGKILL:
            calls.append(("kill", pids[pid]))
        real_kill(pid, signum)

    def waitpid(pid, options):
        if options == 0:  # a reap; the loop's polls pass WNOHANG
            calls.append(("reap", pids[pid]))
        return real_waitpid(pid, options)

    def read_all_into(self, dests):
        calls.append(("copy-back", self.role.value))
        real_read_all_into(self, dests)

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    monkeypatch.setattr(os, "kill", kill)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(replication.ReplicaOutputs, "read_all_into", read_all_into)
    workload = checksum_workload(nbytes=1024)
    verdict, _, outputs = run_protected(workload)
    monkeypatch.undo()
    assert verdict.kind is VerdictKind.MATCH
    assert [bytes(buf) for buf in outputs] == direct_run(workload)
    # release() kills the head, signals the dying trail again, then reaps both.
    assert calls == [("kill", "trail"), ("copy-back", "head"), ("kill", "head"),
                     ("kill", "trail"), ("reap", "head"), ("reap", "trail")]


def _state(pid):
    """The one-letter process state in /proc/<pid>/stat ('T' when stopped)."""
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rpartition(")")[2].split()[0]


@requires_counter
def test_the_head_is_stopped_through_the_compare_and_the_copy_back(monkeypatch):
    states = []
    heads = []
    real_compare = compare_outputs
    real_read_all_into = replication.ReplicaOutputs.read_all_into

    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        heads.append(session.pid(Role.HEAD))
        return session

    def compare(*args):
        states.append(("compare", _state(heads[0])))
        return real_compare(*args)

    def read_all_into(self, dests):
        states.append(("copy-back", _state(heads[0])))
        real_read_all_into(self, dests)

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    monkeypatch.setattr(integrity, "compare_outputs", compare)
    monkeypatch.setattr(replication.ReplicaOutputs, "read_all_into", read_all_into)
    workload = checksum_workload(nbytes=1024)
    verdict, _, outputs = run_protected(workload)
    assert verdict.kind is VerdictKind.MATCH
    assert [bytes(buf) for buf in outputs] == direct_run(workload)
    assert states == [("compare", "T"), ("copy-back", "T")]


@requires_counter
def test_a_head_killed_between_the_compare_and_the_copy_back_is_a_head_crash(monkeypatch):
    pids = {}
    real_compare = compare_outputs

    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        pids.update((r, session.pid(r)) for r in Role)
        return session

    def compare_then_kill(*args):
        verdict = real_compare(*args)
        assert verdict.kind is VerdictKind.MATCH
        os.kill(pids[Role.HEAD], signal.SIGKILL)
        os.waitid(os.P_PID, pids[Role.HEAD], os.WEXITED | os.WNOWAIT)  # dead, not reaped
        return verdict

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    monkeypatch.setattr(integrity, "compare_outputs", compare_then_kill)
    fds_before = len(os.listdir("/proc/self/fd"))
    verdict, _, outputs = run_protected(checksum_workload(nbytes=1024))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert (verdict.failed_role, verdict.failure_cause) == (Role.HEAD, "crash")
    assert all(bytes(buf) == bytes(len(buf)) for buf in outputs)
    assert len(os.listdir("/proc/self/fd")) == fds_before
    for pid in pids.values():
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@requires_counter
def test_protect_maps_nothing_output_sized_after_the_forks(monkeypatch):
    sizes = []
    real_mapping = replication.huge_page_mapping

    def mapping(size):
        sizes.append(size)
        return real_mapping(size)

    monkeypatch.setattr(replication, "huge_page_mapping", mapping)
    workload = checksum_workload(nbytes=4096)
    verdict, _, outputs = run_protected(workload)
    assert verdict.kind is VerdictKind.MATCH
    assert [bytes(buf) for buf in outputs] == direct_run(workload)
    # Per replica, its input copy and its outputs; nothing in the monitor.
    payload = workload.payload
    assert sizes == [payload.total_input_bytes, payload.total_output_bytes] * 2


def test_more_outputs_than_one_read_takes_are_refused_before_any_fork(monkeypatch):
    spawned = []

    def spawn(*args, **kwargs):
        spawned.append(args)
        return spawn_replicas(*args, **kwargs)

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    count = MAX_OUTPUTS + 1
    with pytest.raises(ValueError, match=f"{count} outputs, at most {MAX_OUTPUTS} allowed"):
        protect(_instant, [], [], [bytearray(1) for _ in range(count)], [1] * count,
                REAL_CONFIG)
    assert spawned == []


@pytest.mark.parametrize("coordinates, message", [
    ((0, 99, 0), "byte offset 99 out of range for output 0"),
    ((1, 0, 0), "output index 1 out of range"),
    ((0, 0, 8), "bit index 8 out of range"),
], ids=["byte", "output", "bit"])
def test_a_bit_flip_outside_the_outputs_is_refused_before_any_fork(monkeypatch, coordinates,
                                                                    message):
    spawned = []

    def spawn(*args, **kwargs):
        spawned.append(args)
        return spawn_replicas(*args, **kwargs)

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    workload = checksum_workload(nbytes=64)  # one 16-byte output
    with pytest.raises(ValueError, match=message):
        run_protected(workload, inject=FaultSpec.bit_flip(Role.TRAIL, *coordinates))
    assert spawned == []


@requires_counter
def test_protect_timeout_on_a_stuck_computation():
    def stuck(inputs, outputs):
        acc = 0
        for i in range(10**10):
            acc = (acc + i) & 0xFFFFFFFF
        outputs[0][:] = acc.to_bytes(4, "little")

    config = MonitorConfig(
        threshold_instructions=2_000_000, check_period_us=200, run_timeout_us=50_000
    )
    outputs = [bytearray(4)]
    started = time.monotonic()
    verdict, _ = protect(stuck, [], [], outputs, [4], config)
    assert verdict.kind is VerdictKind.TIMEOUT
    assert time.monotonic() - started < 5.0


@requires_counter
def test_protect_frees_its_session_on_return(monkeypatch):
    # Without cyclic GC, a session (and the payload copy it holds) must die by
    # reference counting alone as soon as protect() returns.
    sessions = []

    def spawn_and_watch(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        sessions.append(weakref.ref(session))
        return session

    monkeypatch.setattr(monitor, "spawn_replicas", spawn_and_watch)
    gc.disable()
    try:
        verdict, _, _ = run_protected(checksum_workload(nbytes=1024))
        assert verdict.kind is VerdictKind.MATCH
        assert len(sessions) == 1 and sessions[0]() is None
    finally:
        gc.enable()


LOSS = StaggeringSample(3, 3000, 5, 8, Action.DIVERSITY_LOSS)
LOOP_VERDICTS = {
    VerdictKind.TIMEOUT: Verdict.timeout(),
    VerdictKind.DIVERSITY_LOSS: Verdict.diversity_loss(LOSS),
    VerdictKind.REPLICA_FAILURE: Verdict.replica_failure(Role.TRAIL, "counter-failure"),
}


@pytest.mark.parametrize("caller", ["protect", "run_scripted"])
@pytest.mark.parametrize("kind", list(LOOP_VERDICTS))
def test_a_loop_verdict_other_than_match_ends_the_run(monkeypatch, caller, kind):
    # run_scripted returns the loop's verdict and trace as they are; protect
    # compares no outputs and only adds the failed replica's detail.
    if caller == "protect" and _counter_reason:
        pytest.skip(f"no progress counter: {_counter_reason}")
    loop_trace = Trace()
    monkeypatch.setattr(monitor, "enforcement_loop", lambda *a, **k: (LOOP_VERDICTS[kind], loop_trace))
    if caller == "run_scripted":
        verdict, trace = run_scripted(Schedule.of([1], [1]), cfg(1))
        assert verdict is LOOP_VERDICTS[kind] and trace is loop_trace
        return

    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        session.failure_detail = lambda role: f"{role.value} traceback"
        return session

    compared = []
    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    monkeypatch.setattr(integrity, "compare_outputs", lambda *a: compared.append(a))
    verdict, trace, outputs = run_protected(checksum_workload(nbytes=64))
    expected = LOOP_VERDICTS[kind]
    if kind is VerdictKind.REPLICA_FAILURE:
        expected = Verdict.replica_failure(Role.TRAIL, "counter-failure", "trail traceback")
    assert verdict == expected
    assert trace is loop_trace
    assert compared == []
    assert all(bytes(buf) == bytes(len(buf)) for buf in outputs)


@requires_counter
@pytest.mark.parametrize("role", [Role.HEAD, Role.TRAIL])
def test_a_short_counter_read_ends_the_run_as_a_counter_failure(monkeypatch, role):
    # The replica's counter fd becomes a pipe at end of file, which reads
    # b"" as a perf fd whose event is in error state does.
    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        os.dup2(read_fd, session._replica(role).counter_fd)
        os.close(read_fd)
        return session

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    verdict, trace, outputs = run_protected(checksum_workload(nbytes=1024))
    assert (verdict.kind, verdict.failed_role, verdict.failure_cause) == (
        VerdictKind.REPLICA_FAILURE, role, "counter-failure")
    assert trace.samples == []
    assert all(bytes(buf) == bytes(len(buf)) for buf in outputs)


@requires_counter
def test_a_monitor_core_that_cannot_be_used_is_a_pinning_failure(monkeypatch):
    pids = []

    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        pids.extend(session.pid(role) for role in Role)
        return session

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    affinity = os.sched_getaffinity(0)
    with pytest.raises(PinningFailure, match="cannot pin the monitor to core 4096"):
        run_protected(checksum_workload(nbytes=64),
                      MonitorConfig(threshold_instructions=2_000_000, monitor_core=4096))
    assert os.sched_getaffinity(0) == affinity
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _boom(inputs, outputs):
    raise ValueError("boom-6")


@requires_counter
def test_a_failed_replica_verdict_carries_its_traceback():
    # A threshold no head reaches first: the trail never starts.
    verdict, _ = protect(_boom, [], [], [bytearray(4)], [4], cfg(10**12, check_period_us=200))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert (verdict.failed_role, verdict.failure_cause) == (Role.HEAD, "nonzero-exit")
    assert "ValueError: boom-6" in verdict.detail
    assert verdict.describe() == "REPLICA_FAILURE (head: nonzero-exit)"


@requires_counter
@pytest.mark.parametrize("role", [Role.HEAD, Role.TRAIL])
@pytest.mark.parametrize("moment", ["after-the-loop", "inside-the-compare"])
def test_a_replica_killed_after_its_done_report_is_a_crash(monkeypatch, role, moment):
    pids = {}

    def spawn(*args, **kwargs):
        session = spawn_replicas(*args, **kwargs)
        pids.update((r, session.pid(r)) for r in Role)
        return session

    def kill():
        os.kill(pids[role], signal.SIGKILL)
        os.waitid(os.P_PID, pids[role], os.WEXITED | os.WNOWAIT)  # dead, not reaped

    def loop_then_kill(*args, **kwargs):
        result = enforcement_loop(*args, **kwargs)
        kill()
        return result

    def kill_then_compare(*args, **kwargs):
        kill()
        return compare_outputs(*args, **kwargs)

    monkeypatch.setattr(monitor, "spawn_replicas", spawn)
    if moment == "after-the-loop":
        monkeypatch.setattr(monitor, "enforcement_loop", loop_then_kill)
    else:
        monkeypatch.setattr(integrity, "compare_outputs", kill_then_compare)
    fds_before = len(os.listdir("/proc/self/fd"))
    verdict, trace, outputs = run_protected(checksum_workload(nbytes=1024))
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert (verdict.failed_role, verdict.failure_cause) == (role, "crash")
    assert [s.action for s in trace.samples].count(Action.TRAIL_DONE) == 1
    assert all(bytes(buf) == bytes(len(buf)) for buf in outputs)
    assert len(os.listdir("/proc/self/fd")) == fds_before
    for pid in pids.values():
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_INVERT = bytes(255 - i for i in range(256))


def _invert(inputs, outputs):
    outputs[0][:] = bytes(inputs[0]).translate(_INVERT)


@requires_counter
def test_protect_locates_a_flip_in_the_last_byte_of_a_large_output():
    size = 3 * 1024 * 1024 + 5
    data = bytes(range(256)) * (size // 256) + bytes(size % 256)
    outputs = [bytearray(b"\x5a" * size)]
    fds_before = len(os.listdir("/proc/self/fd"))
    verdict, _ = protect(_invert, [data], [size], outputs, [size], REAL_CONFIG,
                         inject=FaultSpec.bit_flip(Role.TRAIL, 0, size - 1, 7))
    assert verdict.kind is VerdictKind.MISMATCH
    assert verdict.mismatches == ((0, size - 1),)
    assert outputs[0] == b"\x5a" * size
    assert len(os.listdir("/proc/self/fd")) == fds_before


def _concat(inputs, outputs):
    outputs[0][:] = b"".join(bytes(view) for view in inputs)


@requires_counter
@pytest.mark.parametrize("make_inputs", [
    lambda: [np.arange(1000, dtype=np.uint32)],
    lambda: [np.arange(2000, dtype=np.uint32)[::2]],
    lambda: [b"head", b"", bytearray(b"trail")],
], ids=["uint32", "strided", "zero-length"])
def test_protect_runs_on_any_caller_buffer_like_direct_run(make_inputs):
    inputs = make_inputs()
    sizes = [memoryview(buf).nbytes for buf in inputs]
    outputs = [bytearray(sum(sizes))]
    verdict, _ = protect(_concat, inputs, sizes, outputs, [sum(sizes)], REAL_CONFIG)
    assert verdict.kind is VerdictKind.MATCH
    reference = Workload("concat", 0, 0, PayloadSpec.of(inputs, sizes, [sum(sizes)]), _concat)
    assert [bytes(outputs[0])] == direct_run(reference)


@requires_counter
def test_a_caller_bytearray_input_can_be_resized_once_protect_returns():
    data = bytearray(b"resizable")
    outputs = [bytearray(len(data))]
    verdict, _ = protect(_concat, [data], [len(data)], outputs, [len(data)], REAL_CONFIG)
    assert verdict.kind is VerdictKind.MATCH and outputs[0] == b"resizable"
    data.extend(b" after a match")
    # The raised error's traceback keeps protect()'s frame alive.
    with pytest.raises(ValueError, match="holds"):
        protect(_concat, [data], [len(data)], [bytearray(1)], [len(data)], REAL_CONFIG)
    data.extend(b" and after a refusal")


def test_protect_validates_caller_buffers():
    workload = checksum_workload(nbytes=64)
    with pytest.raises(ValueError, match="read-only"):
        protect(workload.computation, workload.payload.inputs,
                workload.payload.input_sizes, [b"\x00" * 16], [16], REAL_CONFIG)
    with pytest.raises(ValueError, match="holds"):
        protect(workload.computation, workload.payload.inputs,
                workload.payload.input_sizes, [bytearray(3)], [16], REAL_CONFIG)
    with pytest.raises(ValueError, match="output buffers"):
        protect(workload.computation, workload.payload.inputs,
                workload.payload.input_sizes, [], [16], REAL_CONFIG)
    with pytest.raises(ValueError, match="C-contiguous"):
        protect(workload.computation, workload.payload.inputs,
                workload.payload.input_sizes, [np.zeros(32, dtype=np.uint8)[::2]], [16],
                REAL_CONFIG)
    with pytest.raises(ValueError, match="threshold"):
        protect(workload.computation, workload.payload.inputs,
                workload.payload.input_sizes, [bytearray(16)], [16], cfg(0))


def test_an_input_that_contradicts_its_declared_size_is_refused_before_any_fork(monkeypatch):
    spawned = []
    monkeypatch.setattr(monitor, "spawn_replicas", lambda *a, **k: spawned.append(a))
    with pytest.raises(ValueError, match="declared"):
        protect(_instant, [b"abc"], [99], [bytearray(4)], [4], REAL_CONFIG)
    assert spawned == []


# ------------------------------------------- caller buffers and the forks

PAGE = mmap.PAGESIZE


@pytest.mark.parametrize("make", [
    lambda: bytes(3 * PAGE),
    lambda: bytearray(3 * PAGE),
    lambda: np.arange(3 * PAGE, dtype=np.int32),
    lambda: np.zeros(3 * PAGE, dtype=np.uint8)[5:],
    lambda: mmap.mmap(-1, 3 * PAGE),
], ids=["bytes", "bytearray", "int32-array", "offset-uint8-slice", "mmap"])
def test_the_pages_kept_from_forks_start_where_numpy_sees_the_data(make):
    buf = make()
    with memoryview(buf) as view:
        start = np.frombuffer(view.cast("B"), dtype=np.uint8).ctypes.data
        assert replication._buffer_address(view) == start
        end = (start + view.nbytes) // PAGE * PAGE
    first = -(-start // PAGE) * PAGE
    assert replication._whole_pages(buf) == (first, end - first)
    if isinstance(buf, mmap.mmap):
        buf.close()  # raises BufferError if the lookup left the mapping exported


def _pattern(size):
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def _fill_with_first_input_byte(inputs, outputs):
    np.frombuffer(outputs[0], dtype=np.uint8)[:] = inputs[0][0]


@requires_counter
def test_the_copy_back_takes_no_copy_on_write_faults():
    # A page that a fork left write-protected faults on its first write after
    # the fork; the copy-back would take one such fault per output page. The
    # difference between two runs cancels the interpreter's own refaults.
    def faults_of(size):
        outputs = [bytearray(b"\x01" * size)]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        verdict, _ = protect(_fill_with_first_input_byte, [b"\x07"], [1],
                             outputs, [size], REAL_CONFIG)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert verdict.kind is VerdictKind.MATCH
        assert outputs[0] == b"\x07" * size
        return faults

    size = 16 * 1024 * 1024
    extra = faults_of(size) - faults_of(PAGE)
    assert extra < size // PAGE // 4


def _invert_each(inputs, outputs):
    for source, dest in zip(inputs, outputs):
        dest[:] = bytes(source).translate(_INVERT)


def _assert_forkable(*buffers):
    """A plain fork's child reads every page of every buffer and exits 0."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for buf in buffers:
                memoryview(buf).tobytes()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0  # -SIGSEGV: a page left behind


_SIZE = 16 * PAGE + 123


def _unshared_case():
    """A read-only and a writable input, and two outputs, each over 16 pages."""
    data = _pattern(_SIZE)
    return [data, bytearray(data)], [bytearray(_SIZE), bytearray(_SIZE)]


@requires_counter
@pytest.mark.parametrize("inject, expected", [
    (None, VerdictKind.MATCH),
    (FaultSpec.bit_flip(Role.TRAIL, 0, 5 * PAGE, 1), VerdictKind.MISMATCH),
    (FaultSpec.crash(Role.HEAD), VerdictKind.REPLICA_FAILURE),
], ids=["match", "mismatch", "replica-failure"])
def test_every_verdict_leaves_the_caller_buffers_forkable(inject, expected):
    inputs, outputs = _unshared_case()
    verdict, _ = protect(_invert_each, inputs, [_SIZE] * 2, outputs, [_SIZE] * 2,
                         REAL_CONFIG, inject=inject)
    assert verdict.kind is expected
    _assert_forkable(*inputs, *outputs)


@requires_counter
def test_a_failed_fork_leaves_the_caller_buffers_forkable(monkeypatch):
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "no second replica")
        return real_fork()

    inputs, outputs = _unshared_case()
    fds_before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(OSError, match="no second replica"):
        protect(_invert_each, inputs, [_SIZE] * 2, outputs, [_SIZE] * 2, REAL_CONFIG)
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == fds_before
    _assert_forkable(*inputs, *outputs)


def _page_mapping(content):
    region = mmap.mmap(-1, len(content))
    region[:] = content
    return region


def _aliased():
    buf = bytearray(_pattern(2 * PAGE + 1))
    return [buf], [buf]


_SLICE = 3 * PAGE + 7
_FORTY = [(i * 1237) % (PAGE + 9) for i in range(40)]  # zero-length first

# Each case: inputs and outputs of pairwise equal byte sizes.
BUFFER_SHAPES = {
    "sub-page": lambda: ([_pattern(100)], [bytearray(100)]),
    "unaligned-slice": lambda: (
        [memoryview(bytearray(_pattern(5 * PAGE)))[57 : 57 + _SLICE]],
        [memoryview(bytearray(b"\x5a" * 5 * PAGE))[99 : 99 + _SLICE]],
    ),
    "page-exact": lambda: ([_page_mapping(_pattern(2 * PAGE))], [bytearray(2 * PAGE)]),
    "read-only-bytes": lambda: ([_pattern(3 * PAGE + 1)], [bytearray(3 * PAGE + 1)]),
    "numpy-and-mmap-outputs": lambda: (
        [_pattern(4 * PAGE), _pattern(2 * PAGE)],
        [np.zeros(PAGE, dtype=np.uint32), mmap.mmap(-1, 2 * PAGE)],
    ),
    "output-aliases-input": _aliased,
    "zero-byte": lambda: ([b"", _pattern(PAGE)], [bytearray(0), bytearray(PAGE)]),
    "all-empty": lambda: ([b"", b""], [bytearray(0), bytearray(0)]),
    "forty-outputs": lambda: (
        [_pattern(n) for n in _FORTY], [bytearray(b"\x5a" * n) for n in _FORTY],
    ),
}


@requires_counter
@pytest.mark.parametrize("shape", list(BUFFER_SHAPES))
def test_protect_delivers_exact_outputs_into_any_buffer_shape(shape):
    inputs, outputs = BUFFER_SHAPES[shape]()
    sizes = [memoryview(buf).nbytes for buf in inputs]
    expected = [memoryview(buf).tobytes().translate(_INVERT) for buf in inputs]
    verdict, _ = protect(_invert_each, inputs, sizes, outputs, sizes, REAL_CONFIG)
    assert verdict.kind is VerdictKind.MATCH
    assert [memoryview(buf).tobytes() for buf in outputs] == expected
    if shape == "unaligned-slice":
        whole = outputs[0].obj
        assert whole[:99] + whole[99 + _SLICE :] == b"\x5a" * (len(whole) - _SLICE)
    _assert_forkable(*inputs, *outputs)


@requires_counter
def test_a_computation_that_writes_the_callers_buffer_directly_crashes():
    # A replica writes only its output views: the caller's own pages are not
    # mapped in it, so a write through a closure faults instead of landing in
    # a private copy.
    caller_output = bytearray(b"\x5a" * 4 * PAGE)

    def write_through_closure(inputs, outputs):
        faulthandler.disable()  # the crash is expected: no fault dump
        caller_output[2 * PAGE] = 0
        outputs[0][:] = bytes(len(outputs[0]))

    verdict, _ = protect(write_through_closure, [], [], [caller_output],
                         [len(caller_output)], REAL_CONFIG)
    assert verdict.kind is VerdictKind.REPLICA_FAILURE
    assert verdict.failure_cause == "crash"
    assert caller_output == b"\x5a" * 4 * PAGE
