"""Enforcement loop: simulator parity, replay fidelity, verdicts, trace CSV."""

import errno
import faulthandler
import gc
import io
import mmap
import os
import resource
import signal
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlockstep import linuxperf, monitor
from softlockstep.core import (
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    PayloadSpec,
    Role,
    StaggeringSample,
    Verdict,
    VerdictKind,
)
from softlockstep.integrity import FaultSpec, compare_outputs
from softlockstep.monitor import (
    LoopOutcome,
    LoopResult,
    TRACE_HEADER,
    Trace,
    enforcement_loop,
    protect,
    read_trace,
    replay,
    run_scripted,
    write_trace,
)
from softlockstep.progress import (
    CounterUnavailable,
    ScriptedReplicaSpec,
    ScriptedSource,
)
from softlockstep.replication import spawn_replicas
from softlockstep.sim import Schedule, simulate
from softlockstep.workloads import Workload, checksum_workload, direct_run

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


def test_on_check_sees_exactly_what_the_samples_record():
    source = ScriptedSource({
        Role.HEAD: ScriptedReplicaSpec.of([10, 10, 10]),
        Role.TRAIL: ScriptedReplicaSpec.of([10, 10, 10], start_suspended=True),
    })
    seen = []
    result = enforcement_loop(
        source=source,
        clock=source,
        config=cfg(15),
        on_check=lambda now, h, t: seen.append((now, h, t)),
        backend="scripted",
    )
    assert result.outcome is LoopOutcome.COMPLETED
    assert seen == [(s.timestamp_ns, s.head_count, s.trail_count) for s in result.trace.samples]


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
    source = ScriptedSource({
        Role.HEAD: ScriptedReplicaSpec.of([1] * 10),
        Role.TRAIL: ScriptedReplicaSpec.of([1] * 10, start_suspended=True),
    })
    flaky = _FlakyCounterSource(source, fail_after=4)
    result = enforcement_loop(
        source=flaky,
        clock=source,
        config=cfg(100),
    )
    assert result.outcome is LoopOutcome.REPLICA_TROUBLE
    assert result.failure_cause == "counter-failure"
    assert result.failed_role is Role.HEAD
    assert len(result.trace.samples) == 2  # two clean checks before the failure


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
@pytest.mark.parametrize("method", ["read_count", "is_terminated"])
def test_a_failed_read_or_poll_blames_the_replica_it_was_about(role, method):
    source = ScriptedSource({
        Role.HEAD: ScriptedReplicaSpec.of([1] * 10),
        Role.TRAIL: ScriptedReplicaSpec.of([1] * 10, start_suspended=True),
    })
    result = enforcement_loop(
        source=_FlakyPollSource(source, role, method, fail_after=2),
        clock=source,
        config=cfg(100),
    )
    assert result.outcome is LoopOutcome.REPLICA_TROUBLE
    assert result.failure_cause == "counter-failure"
    assert result.failed_role is role
    assert len(result.trace.samples) == 2


# ------------------------------------------------------------------ replay

def test_replay_reproduces_a_scripted_run_exactly():
    schedule = Schedule.of([100, 100, 0, 0, 100, 100, 100, 0], [50] * 8)
    config = cfg(150)
    _, trace = run_scripted(schedule, config)
    result = replay(trace, config)
    assert result.outcome is LoopOutcome.COMPLETED
    assert result.trace.samples == trace.samples
    assert result.trace.backend == "replay"


def test_replay_reproduces_an_aborted_run():
    config = cfg(1, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    _, trace = run_scripted(OVERTAKE, config)
    result = replay(trace, config)
    assert result.outcome is LoopOutcome.DIVERSITY_ABORT
    assert result.trace.samples == trace.samples


def test_replay_ignores_the_recorded_run_timeout():
    schedule = Schedule.of([100] * 6, [100] * 6)
    _, trace = run_scripted(schedule, cfg(150))
    result = replay(trace, cfg(150, run_timeout_us=1))
    assert result.outcome is LoopOutcome.COMPLETED
    assert result.trace.samples == trace.samples


@pytest.mark.parametrize("schedule, recorded, replayed", [
    (Schedule.of([100] * 50, [100] * 50), cfg(150, run_timeout_us=10), cfg(150)),
    (OVERTAKE, cfg(1, diversity_loss_policy=DiversityLossPolicy.ABORT_RUN), cfg(1)),
], ids=["timed-out", "aborted-replayed-under-record"])
def test_replay_times_out_where_an_unfinished_recording_ends(schedule, recorded, replayed,
                                                              fails_after):
    _, trace = run_scripted(schedule, recorded)
    assert Action.TRAIL_DONE not in [s.action for s in trace.samples]
    with fails_after(5):
        result = replay(trace, replayed)
    assert result.outcome is LoopOutcome.TIMEOUT
    assert result.trace.samples == trace.samples


def test_replay_rejects_an_empty_trace():
    with pytest.raises(ValueError, match="no recorded samples"):
        replay(Trace(), cfg(1))


# --------------------------------------------------------------- trace CSV

def sample(interval, ts, head, trail, action):
    return StaggeringSample.at(interval, ts, head, trail, action)


def test_trace_csv_exact_format():
    trace = Trace(samples=[sample(3, 1000, 950_000_000, 740_000_000, Action.RESUME)])
    buf = io.StringIO()
    write_trace(trace, buf)
    assert buf.getvalue().splitlines() == [
        "interval,timestamp_ns,head_instr,trail_instr,staggering,action",
        "3,1000,950000000,740000000,210000000,RESUME",
    ]


def test_trace_csv_round_trip_preserves_every_sample():
    _, trace = run_scripted(OVERTAKE, cfg(1))
    buf = io.StringIO()
    write_trace(trace, buf)
    parsed = read_trace(io.StringIO(buf.getvalue()))
    assert parsed.samples == trace.samples
    assert parsed.backend == "file"


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

    # a loss check suspends, so a following RESUME is legal
    assert Trace(samples=[
        sample(0, 10, 5, 0, Action.RESUME),
        sample(1, 20, 5, 6, Action.DIVERSITY_LOSS),
        sample(2, 30, 9, 6, Action.RESUME),
    ]).validate() == []


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
    assert trace.backend == f"process/{trace.counter}"
    actions = [s.action for s in trace.samples]
    assert actions.count(Action.HEAD_DONE) == 1
    assert actions.count(Action.TRAIL_DONE) == 1


@requires_counter
def test_protect_replay_recomputes_the_recorded_actions():
    workload = checksum_workload(nbytes=4096)
    verdict, trace, _ = run_protected(workload)
    assert verdict.kind is VerdictKind.MATCH
    result = replay(trace, REAL_CONFIG)
    assert result.outcome is LoopOutcome.COMPLETED
    assert result.trace.samples == trace.samples


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
def test_protect_timeout_on_a_stuck_computation():
    def stuck(inputs, outputs):
        acc = 0
        for i in range(10**10):
            acc = (acc + i) & 0xFFFFFFFF
        outputs[0][:] = acc.to_bytes(4, "little")

    import time

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


LOSS = StaggeringSample.at(3, 3000, 5, 8, Action.DIVERSITY_LOSS)
VERDICT_FOR_OUTCOME = {
    LoopOutcome.TIMEOUT: Verdict.timeout(),
    LoopOutcome.DIVERSITY_ABORT: Verdict.diversity_loss(LOSS),
    LoopOutcome.REPLICA_TROUBLE: Verdict.replica_failure(Role.TRAIL, "counter-failure"),
}


@pytest.mark.parametrize("caller", ["protect", "run_scripted"])
@pytest.mark.parametrize("outcome", list(VERDICT_FOR_OUTCOME))
def test_a_loop_outcome_gives_one_verdict_whoever_runs_the_loop(monkeypatch, caller, outcome):
    if caller == "protect" and _counter_reason:
        pytest.skip(f"no progress counter: {_counter_reason}")

    def canned_loop(*args, **kwargs):
        return LoopResult(outcome, Trace(), loss_sample=LOSS,
                          failed_role=Role.TRAIL, failure_cause="counter-failure")

    monkeypatch.setattr(monitor, "enforcement_loop", canned_loop)
    if caller == "protect":
        verdict, _, outputs = run_protected(checksum_workload(nbytes=64))
        assert all(bytes(buf) == bytes(len(buf)) for buf in outputs)
    else:
        verdict, _ = run_scripted(Schedule.of([1], [1]), cfg(1))
    assert verdict == VERDICT_FOR_OUTCOME[outcome]


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
        monkeypatch.setattr(monitor.integrity, "compare_outputs", kill_then_compare)
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


# ------------------------------------------- caller buffers and the forks

PAGE = mmap.PAGESIZE


def _pattern(size):
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def _fill_with_first_input_byte(inputs, outputs):
    np.frombuffer(outputs[0], dtype=np.uint8)[:] = inputs[0][0]


def _transparent_huge_pages():
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            return "[never]" not in f.read()
    except OSError:
        return False


@requires_counter
@pytest.mark.skipif(not _transparent_huge_pages(),
                    reason="the head copy's own 4 KiB faults would swamp the count")
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
