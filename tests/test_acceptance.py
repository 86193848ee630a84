"""Acceptance gate: nine scenario checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on passing runs too (pytest hides captured stdout otherwise). Each
test prints its line before asserting, so failures still show the verdict.
"""

import random
import time

import pytest

from softlockstep import linuxperf
from softlockstep.calibration import calibrate
from softlockstep.core import (
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    Role,
    TrailState,
    Verdict,
    VerdictKind,
    decide,
)
from softlockstep.integrity import FaultSpec
from softlockstep.monitor import protect, run_scripted
from softlockstep.progress import CounterUnavailable
from softlockstep.replication import spawn_replicas
from softlockstep.sim import Schedule, exhaustive_check, min_staggering, simulate
from softlockstep.workloads import checksum_workload, direct_run, matmul_workload, spin_workload

try:
    _COUNTER = linuxperf.probe_counter("auto")
    _counter_reason = ""
except CounterUnavailable as exc:
    _COUNTER = None
    _counter_reason = str(exc)


def report(num: int, ok: bool, detail: str, status: str = "") -> None:
    print(f"ACCEPTANCE {num}: {status or ('PASS' if ok else 'FAIL')} - {detail}")


def skip_needing_counter(num: int, what: str) -> None:
    report(num, True, f"{what}: no usable progress counter ({_counter_reason})", status="SKIP")
    pytest.skip(f"no progress counter: {_counter_reason}")


def run_protected(workload, config, inject=None):
    outputs = [bytearray(size) for size in workload.payload.output_sizes]
    verdict, trace = protect(
        workload.computation,
        workload.payload.inputs,
        workload.payload.input_sizes,
        outputs,
        workload.payload.output_sizes,
        config,
        inject=inject,
    )
    return verdict, trace, outputs


def test_criterion_1_suspend_resume_pattern_with_quiescent_tail():
    # Head sprints, stalls, sprints again: each stall drags staggering under
    # the threshold (suspend), each sprint restores it (resume). A matched
    # tail then keeps staggering parked above the threshold: no more action.
    schedule = Schedule.of(
        [30, 0, 0, 0, 30, 0, 0, 0, 30, 10, 10, 10, 10, 10],
        [0, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
    )
    threshold = 10
    started = time.monotonic()
    verdict, trace = run_scripted(schedule, MonitorConfig(threshold_instructions=threshold))
    elapsed = time.monotonic() - started

    stops_and_wakes = [s.action for s in trace.samples if s.action in (Action.SUSPEND, Action.RESUME)]
    alternations = sum(
        1
        for a, b in zip(stops_and_wakes, stops_and_wakes[1:])
        if a is Action.SUSPEND and b is Action.RESUME
    )
    last_resume = max(i for i, s in enumerate(trace.samples) if s.action is Action.RESUME)
    head_done = next(i for i, s in enumerate(trace.samples) if s.action is Action.HEAD_DONE)
    tail = trace.samples[last_resume + 1 : head_done]

    ok = (
        verdict.kind is VerdictKind.MATCH
        and alternations >= 2
        and len(tail) >= 3
        and all(s.action is Action.NONE for s in tail)
        and all(s.staggering > threshold for s in tail)
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"suspend/resume alternations={alternations}, quiescent NONE tail of "
        f"{len(tail)} samples above threshold, {elapsed:.3f}s",
    )
    assert ok


def test_criterion_2_threshold_decision_fidelity():
    dip = decide(84_000_000, 150_000_000, TrailState.RUNNING)
    recovery = decide(210_000_000, 150_000_000, TrailState.SUSPENDED)
    ok = dip is Action.SUSPEND and recovery is Action.RESUME
    report(2, ok, f"84M while running -> {dip.value}, 210M while suspended -> {recovery.value}")
    assert ok


def test_criterion_3_exhaustive_safety_and_tightness():
    started = time.monotonic()
    safe = exhaustive_check([0, 1, 2], ticks=6, period_ticks=1, suspend_latency_ticks=1, threshold=4)
    unsafe = exhaustive_check([0, 1, 2], ticks=6, period_ticks=1, suspend_latency_ticks=1, threshold=3)
    elapsed = time.monotonic() - started

    reproduced = (
        not unsafe.safe
        and min_staggering(simulate(unsafe.counterexample, 3)) < 0
    )
    ok = safe.safe and safe.schedules_checked == 3**12 and reproduced and elapsed < 10.0
    report(
        3,
        ok,
        f"threshold 4 safe over {safe.schedules_checked} schedules, threshold 3 "
        f"counterexample reproduced, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_live_loop_cross_validates_the_simulator():
    rng = random.Random(20260814)
    agreed = 0
    for _ in range(100):
        ticks = rng.randint(1, 8)
        schedule = Schedule.of(
            [rng.randint(0, 5) for _ in range(ticks)],
            [rng.randint(0, 5) for _ in range(ticks)],
            period_ticks=rng.randint(1, 3),
            suspend_latency_ticks=rng.randint(0, 2),
        )
        threshold = rng.randint(1, 8)
        _, live = run_scripted(schedule, MonitorConfig(threshold_instructions=threshold))
        modeled = simulate(schedule, threshold)
        if [s.staggering for s in live.samples] == [s.staggering for s in modeled.samples]:
            agreed += 1
        assert live.samples == modeled.samples
    ok = agreed == 100
    report(4, ok, f"{agreed}/100 random schedules: identical sampled staggering sequences")
    assert ok


@pytest.mark.slow
def test_criterion_5_exhaustive_bitflip_campaign():
    if _counter_reason:
        skip_needing_counter(5, "bit-flip campaign needs real replicas")
    workload = checksum_workload(256, seed=1)
    config = MonitorConfig(threshold_instructions=2_000_000, check_period_us=200)

    detected = 0
    injections = 0
    for role in (Role.HEAD, Role.TRAIL):
        for byte in range(16):
            for bit in range(8):
                injections += 1
                fault = FaultSpec.bit_flip(role, 0, byte, bit)
                verdict, _, _ = run_protected(workload, config, inject=fault)
                if verdict.kind is VerdictKind.MISMATCH and verdict.mismatches == ((0, byte),):
                    detected += 1

    false_alarms = 0
    for _ in range(100):
        verdict, _, _ = run_protected(workload, config)
        if verdict.kind is not VerdictKind.MATCH:
            false_alarms += 1

    ok = detected == injections == 256 and false_alarms == 0
    report(
        5,
        ok,
        f"{detected}/{injections} injected bit flips detected at the right byte, "
        f"{false_alarms} false alarms in 100 clean runs",
    )
    assert ok


def test_criterion_6_protected_outputs_equal_direct_execution():
    if _counter_reason:
        skip_needing_counter(6, "oracle equivalence needs real replicas")
    config = MonitorConfig(threshold_instructions=2_000_000, check_period_us=200)
    sizes = []
    for n in (1, 4, 32):
        workload = matmul_workload(n, seed=2)
        expected = direct_run(workload)
        verdict, _, outputs = run_protected(workload, config)
        assert verdict.kind is VerdictKind.MATCH, verdict.describe()
        assert [bytes(buf) for buf in outputs] == expected
        sizes.append(n)
    report(6, True, f"matmul n in {sizes}: delivered outputs bitwise-equal to a direct run")


def test_criterion_7_diversity_loss_detection():
    overtake = Schedule.of([5, 0, 0, 0, 5, 5], [0, 3, 3, 0, 0, 0])

    _, trace = run_scripted(overtake, MonitorConfig(threshold_instructions=1))
    losses = [s for s in trace.samples if s.action is Action.DIVERSITY_LOSS]

    verdict, _ = run_scripted(
        overtake,
        MonitorConfig(
            threshold_instructions=1,
            diversity_loss_policy=DiversityLossPolicy.ABORT_RUN,
        ),
    )

    ok = (
        bool(losses)
        and all(s.staggering < 0 for s in losses)
        and verdict.kind is VerdictKind.DIVERSITY_LOSS
    )
    report(
        7,
        ok,
        f"{len(losses)} negative-staggering samples recorded; abort policy "
        f"verdict {verdict.kind.value}",
    )
    assert ok


def test_criterion_8_calibrated_threshold_band_informational():
    if _counter_reason:
        skip_needing_counter(8, "calibration needs a progress counter")
    result = calibrate(
        check_period_us=1000,
        safety_margin=1.0,
        duration_us=150_000,
        probes=30,
    )
    in_band = 100_000 <= result.recommended_threshold < 10_000_000
    note = "inside" if in_band else "OUTSIDE"
    unit = "instructions" if result.counter == "instructions" else f"{result.counter} units"
    report(
        8,
        True,
        f"1 ms period, margin 1 -> threshold {result.recommended_threshold} {unit} "
        f"({note} the hundreds-of-thousands-to-millions band; informational only)",
        status="PASS (informational)",
    )
    assert result.validate() == []
    assert result.recommended_threshold > 0


@pytest.mark.slow
def test_criterion_9_suspension_freezes_the_count():
    if _counter_reason:
        skip_needing_counter(9, "suspension probing needs a progress counter")
    workload = spin_workload(10**10)
    config = MonitorConfig(threshold_instructions=10_000)
    session = spawn_replicas(workload.computation, workload.payload, config)
    pid = session.pid(Role.TRAIL)
    drift_free = 0
    try:
        frozen = session.read_count(Role.TRAIL)
        for _ in range(100):
            session.resume(Role.TRAIL)
            deadline = time.monotonic() + 5.0
            while session.read_count(Role.TRAIL) <= frozen:
                time.sleep(0.0005)
                assert time.monotonic() < deadline, "trail made no progress after resume"
            session.suspend(Role.TRAIL)
            wait_stopped(pid)
            frozen = session.read_count(Role.TRAIL)
            time.sleep(0.001)
            if session.read_count(Role.TRAIL) == frozen:
                drift_free += 1
    finally:
        session.release()
    ok = drift_free == 100
    report(9, ok, f"{drift_free}/100 suspend cycles with zero count drift ({session.counter_kind})")
    assert ok


def wait_stopped(pid, timeout=5.0):
    # A stop signal takes effect when the target next handles signals, so
    # "suspended" starts at state T, not at signal send. Count drift before
    # that is monitor latency (measured by calibration), not a counter leak.
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rpartition(")")[2].split()[0]
        if state == "T":
            return
        time.sleep(0.0005)
    raise AssertionError(f"pid {pid} never reached stopped state")
