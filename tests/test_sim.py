"""Simulator semantics, the brute-force safety theorem, and schedule CSV."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlockstep import sim
from softlockstep.core import Action, DiversityLossPolicy
from softlockstep.sim import (
    INT64_MAX,
    CheckResult,
    EmptyTrace,
    Schedule,
    SearchSpaceTooLarge,
    exhaustive_check,
    min_staggering,
    read_schedule_csv,
    simulate,
    write_schedule_csv,
)
from softlockstep.sim import _min_staggering_block


def actions(trace):
    return [s.action for s in trace.samples]


def staggerings(trace):
    return [s.staggering for s in trace.samples]


def test_constant_rates_resume_after_two_ticks_then_hold():
    # Head and trail each at 100/tick, threshold 150, checks every tick: the
    # trail sits suspended for two ticks (staggering 100, then 200), resumes
    # at the 200 reading, and the staggering holds at 200 from then on.
    schedule = Schedule.of([100] * 8, [100] * 8)
    trace = simulate(schedule, threshold=150)
    assert staggerings(trace)[:3] == [100, 200, 200]
    assert actions(trace)[:3] == [Action.NONE, Action.RESUME, Action.NONE]
    tail = trace.samples[2:-2]
    assert all(s.action is Action.NONE and s.staggering == 200 for s in tail)
    assert actions(trace)[-2:] == [Action.HEAD_DONE, Action.TRAIL_DONE]


def test_head_stall_triggers_suspend_within_one_period():
    # From staggering 200 the head stalls while the trail runs 100/tick:
    # the next check reads 100 < 150 and must stop the trail.
    schedule = Schedule.of([100, 100, 100, 0, 0, 0], [100] * 6)
    trace = simulate(schedule, threshold=150)
    # checks: 100 NONE, 200 RESUME, 200 NONE, then the stall bites: 100 SUSPEND
    assert staggerings(trace)[:4] == [100, 200, 200, 100]
    assert actions(trace)[3] is Action.SUSPEND


def test_suspend_latency_lets_trail_run_extra_ticks():
    # Latency L: after a Suspend at tick k the trail still accrues ticks
    # k+1 .. k+L and is constant afterwards.
    schedule = Schedule.of([100, 0, 0, 0, 0, 0], [0, 10, 10, 10, 10, 10],
                           suspend_latency_ticks=2)
    trace = simulate(schedule, threshold=200)
    # check 1: staggering 100 < 200, trail suspended from start: NONE, frozen.
    assert trace.samples[0].trail_count == 0
    # trail was never resumed, so latency never came into play
    assert all(s.trail_count == 0 for s in trace.samples)

    schedule = Schedule.of([100, 100, 0, 0, 0, 0], [0, 0, 10, 10, 10, 10],
                           suspend_latency_ticks=2)
    trace = simulate(schedule, threshold=195)
    # resume at check 2 (staggering 200), stall: check 3 reads 190 < 195 so
    # SUSPEND, but latency 2 lets the trail still accrue ticks 4 and 5, not 6.
    assert actions(trace)[1] is Action.RESUME
    assert actions(trace)[2] is Action.SUSPEND
    assert [s.trail_count for s in trace.samples[2:6]] == [10, 20, 30, 30]


def test_samples_after_head_done_are_none_regardless_of_staggering():
    # Head finishes at tick 2; trail is released and catches up, driving the
    # staggering negative, but post-release checks stay NONE.
    schedule = Schedule.of([50, 50], [30] * 8, trail_length=240)
    trace = simulate(schedule, threshold=1000)
    done_at = actions(trace).index(Action.HEAD_DONE)
    for sample in trace.samples[done_at + 1 : -1]:
        assert sample.action is Action.NONE
    assert trace.samples[-1].action is Action.TRAIL_DONE
    assert min(staggerings(trace)) < 0


def test_length_clamps_accrual():
    schedule = Schedule.of([100] * 4, [100] * 4, head_length=250, trail_length=250)
    trace = simulate(schedule, threshold=1)
    assert trace.samples[-1].head_count == 250
    assert trace.samples[-1].trail_count == 250


def test_abort_run_stops_at_first_negative_check():
    # Trail overtakes while the head is alive: threshold 1 resumes the trail,
    # the head stalls, the trail passes it.
    schedule = Schedule.of([5, 0, 0, 0, 5, 5], [0, 3, 3, 0, 0, 0])
    trace = simulate(schedule, threshold=1,
                     diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    assert trace.diversity_lost
    assert trace.samples[-1].action is Action.DIVERSITY_LOSS
    assert trace.samples[-1].staggering < 0


def test_record_and_continue_keeps_sampling_after_loss():
    schedule = Schedule.of([5, 0, 0, 0, 5, 5], [0, 3, 3, 0, 0, 0])
    trace = simulate(schedule, threshold=1)
    losses = [s for s in trace.samples if s.action is Action.DIVERSITY_LOSS]
    assert losses and all(s.staggering < 0 for s in losses)
    assert trace.samples[-1].action is Action.TRAIL_DONE


# The trail overtakes, then terminates, while the head is still running.
TRAIL_FINISHES_FIRST = Schedule.of([3] * 4 + [0] * 16, [0] * 4 + [9] * 16,
                                   period_ticks=4, suspend_latency_ticks=4,
                                   head_length=30, trail_length=20)


def test_a_trail_that_overtakes_and_finishes_first_is_a_loss():
    trace = simulate(TRAIL_FINISHES_FIRST, threshold=3)
    assert min_staggering(trace) == -8
    assert trace.diversity_lost
    assert [(s.head_count, s.trail_count, s.action) for s in trace.samples] == [
        (12, 0, Action.RESUME),
        (12, 20, Action.DIVERSITY_LOSS),
        (12, 20, Action.DIVERSITY_LOSS),
        (12, 20, Action.DIVERSITY_LOSS),
        (12, 20, Action.HEAD_DONE),
        (12, 20, Action.TRAIL_DONE),
    ]
    aborted = simulate(TRAIL_FINISHES_FIRST, threshold=3,
                       diversity_loss_policy=DiversityLossPolicy.ABORT_RUN)
    assert aborted.samples == trace.samples[:2]


def test_min_staggering_sees_between_check_instants():
    # With period 2 the dip happens inside the period; samples never show it
    # but instants do.
    schedule = Schedule.of([4, 0, 0, 4], [0, 0, 3, 3], period_ticks=2)
    trace = simulate(schedule, threshold=1)
    assert min_staggering(trace) == 1  # tick 3, between the two checks
    assert min(staggerings(trace)) == 2  # checks only ever saw 4 and 2


def test_min_staggering_rejects_empty_trace():
    from softlockstep.sim import SimTrace

    with pytest.raises(EmptyTrace):
        min_staggering(SimTrace())


@pytest.mark.parametrize("schedule", [
    Schedule.of([], [1]),
    Schedule.of([3, 3], [1, 1, 1], head_length=0),
])
def test_a_head_with_no_work_still_models_its_first_tick(schedule):
    # Such a head is terminated before tick 1 starts, yet tick 1 is an
    # instant of the run: the trace is never empty.
    trace = simulate(schedule, threshold=2)
    assert trace.instants == [(1, 0)]
    assert min_staggering(trace) == 0
    assert actions(trace)[0] is Action.HEAD_DONE


def test_simulate_rejects_invalid_schedules():
    with pytest.raises(ValueError):
        simulate(Schedule.of([1], [-1]), threshold=1)
    with pytest.raises(ValueError):
        simulate(Schedule.of([1], [1], period_ticks=0), threshold=1)


def test_exhaustive_tightness_small_case():
    # r_max = 2, period 1, latency 1: safe exactly at 4 = r_max * (P + L).
    # The alphabet must contain an odd rate, else no schedule can resume at
    # staggering exactly 3 and threshold 3 would be safe too.
    safe = exhaustive_check([0, 1, 2], ticks=4, period_ticks=1,
                            suspend_latency_ticks=1, threshold=4)
    assert safe.safe and safe.schedules_checked == 3 ** 8
    unsafe = exhaustive_check([0, 1, 2], ticks=4, period_ticks=1,
                              suspend_latency_ticks=1, threshold=3)
    assert not unsafe.safe
    # the returned counterexample must reproduce under the full simulator
    trace = simulate(unsafe.counterexample, threshold=3)
    assert min_staggering(trace) < 0


def test_exhaustive_counterexample_carries_monitor_timing():
    # threshold 3 < r_max * (P + L) = 6, so a counterexample exists, e.g.
    # head [0,0,1,2,0,0] resumes the trail at staggering exactly 3 and a
    # 2-per-tick trail then drops it to -1 before the next check.
    result = exhaustive_check([0, 1, 2], ticks=6, period_ticks=2,
                              suspend_latency_ticks=1, threshold=3)
    assert not result.safe
    assert result.schedules_checked == 32814
    assert result.counterexample.head_deltas == (0, 0, 1, 2, 0, 0)
    assert result.counterexample.period_ticks == 2
    assert result.counterexample.suspend_latency_ticks == 1
    trace = simulate(result.counterexample, threshold=3)
    assert min_staggering(trace) < 0


def test_exhaustive_pins_the_benchmark_model_case():
    # perfbench's model-check pair: its reference enumeration visits exactly
    # these schedule counts, so they must not move.
    safe = exhaustive_check([0, 1, 2], ticks=6, period_ticks=1,
                            suspend_latency_ticks=1, threshold=4)
    assert safe == CheckResult(safe=True, schedules_checked=531_441)
    unsafe = exhaustive_check([0, 1, 2], ticks=6, period_ticks=1,
                              suspend_latency_ticks=1, threshold=3)
    assert unsafe == CheckResult(
        safe=False,
        counterexample=Schedule.of((0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 2, 2),
                                   period_ticks=1, suspend_latency_ticks=1),
        schedules_checked=32_814,
    )


def naive_check(alphabet, ticks, period, latency, threshold):
    """exhaustive_check by the plain loop: itertools.product order, simulate() as oracle."""
    checked = 0
    for head in itertools.product(sorted(alphabet), repeat=ticks):
        for trail in itertools.product(sorted(alphabet), repeat=ticks):
            checked += 1
            schedule = Schedule.of(head, trail, period_ticks=period,
                                   suspend_latency_ticks=latency)
            if min_staggering(simulate(schedule, threshold=threshold)) < 0:
                return CheckResult(safe=False, counterexample=schedule,
                                   schedules_checked=checked)
    return CheckResult(safe=True, schedules_checked=checked)


@pytest.mark.parametrize("alphabet", [(0, 1, 2), (0, 1, 3), (0, 2), (1,)],
                         ids=lambda alphabet: ",".join(map(str, alphabet)))
def test_exhaustive_equals_the_naive_enumeration(alphabet, monkeypatch):
    # Three ticks for three letters keeps the naive loop to seconds. Period 2
    # divides neither 3 nor 4 ticks, nor period 3 four; a 64-schedule block
    # puts the first counterexample in a later block and leaves a partial one.
    ticks = 4 if len(alphabet) < 3 else 3
    for period, latency, threshold in itertools.product(range(1, 4), range(3), range(10)):
        expected = naive_check(alphabet, ticks, period, latency, threshold)
        for block in (sim._BLOCK, 64):
            monkeypatch.setattr(sim, "_BLOCK", block)
            assert exhaustive_check(alphabet, ticks, period, latency, threshold) == expected


def test_exhaustive_rejects_oversized_spaces():
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_check(list(range(10)), ticks=4, period_ticks=1,
                         suspend_latency_ticks=0, threshold=1)


def test_exhaustive_bounds_the_space_without_building_its_power(fails_after):
    # 3^(2*10^7) alone takes seconds to build and has millions of digits.
    with fails_after(2), pytest.raises(SearchSpaceTooLarge, match="exceeds"):
        exhaustive_check([0, 1, 2], ticks=10**7, period_ticks=1,
                         suspend_latency_ticks=0, threshold=4)


def test_a_one_rate_check_is_refused_for_its_length(fails_after):
    # One schedule, but the kernel still steps through every tick.
    with fails_after(2), pytest.raises(SearchSpaceTooLarge, match="exceeds"):
        exhaustive_check([0], ticks=10**12, period_ticks=1,
                         suspend_latency_ticks=0, threshold=0)


def test_every_space_of_up_to_ten_million_schedules_stays_within_the_work_bound():
    # Ten million schedules was the bound on the space alone: each multi-letter
    # check it let through is still accepted.
    for size in range(2, 3163):
        ticks = 1
        while size ** (2 * ticks) <= 10_000_000:
            assert sim._search_space(size, ticks) == size ** (2 * ticks), (size, ticks)
            ticks += 1
    assert sim._search_space(1, sim.MAX_KERNEL_WORK) == 1
    assert sim._search_space(1, sim.MAX_KERNEL_WORK + 1) is None


@pytest.mark.parametrize("alphabet, ticks, threshold, message", [
    ([0, 2**62], 2, 1, "rate 4611686018427387904 over 2 ticks"),
    ([1], INT64_MAX + 1, 1, "rate 1 over"),
    ([0, 1], 2, INT64_MAX + 1, "threshold"),
    ([0, 1], 2, -INT64_MAX - 1, "threshold"),
], ids=["rate", "ticks", "threshold", "negative-threshold"])
def test_exhaustive_rejects_counts_past_int64(alphabet, ticks, threshold, message):
    with pytest.raises(ValueError, match=message) as caught:
        exhaustive_check(alphabet, ticks=ticks, period_ticks=1,
                         suspend_latency_ticks=0, threshold=threshold)
    assert str(INT64_MAX) in str(caught.value)


def test_exhaustive_accepts_counts_up_to_int64():
    # The largest rate whose three-tick count still fits is evaluated
    # exactly, and so is a latency far past int64 (a freeze that never
    # bites): the trail, suspended at tick 2, overtakes by a whole rate.
    top = INT64_MAX // 3
    assert exhaustive_check([0, top], ticks=3, period_ticks=1, suspend_latency_ticks=10**30,
                            threshold=INT64_MAX).safe
    unsafe = exhaustive_check([0, top], ticks=3, period_ticks=1, suspend_latency_ticks=10**30,
                              threshold=1)
    assert unsafe.counterexample == Schedule.of((top, 0, 0), (0, top, top),
                                                suspend_latency_ticks=10**30)
    assert min_staggering(simulate(unsafe.counterexample, threshold=1)) == -top


def test_exhaustive_validates_inputs():
    with pytest.raises(ValueError):
        exhaustive_check([], ticks=2, period_ticks=1, suspend_latency_ticks=0, threshold=1)
    with pytest.raises(ValueError):
        exhaustive_check([-1, 2], ticks=2, period_ticks=1, suspend_latency_ticks=0, threshold=1)
    with pytest.raises(ValueError):
        exhaustive_check([0, 1], ticks=0, period_ticks=1, suspend_latency_ticks=0, threshold=1)


def test_zero_alphabet_is_safe_at_zero_threshold():
    result = exhaustive_check([0], ticks=3, period_ticks=1,
                              suspend_latency_ticks=0, threshold=0)
    assert result.safe


schedules = st.builds(
    Schedule.of,
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
    period_ticks=st.integers(min_value=1, max_value=3),
    suspend_latency_ticks=st.integers(min_value=0, max_value=3),
)


@settings(max_examples=300, deadline=None)
@given(schedule=schedules)
def test_safety_theorem_on_random_schedules(schedule):
    # threshold >= r_max * (P + L) never loses diversity, whatever the rates.
    r_max = max(schedule.trail_deltas)
    threshold = r_max * (schedule.period_ticks + schedule.suspend_latency_ticks)
    trace = simulate(schedule, threshold=threshold)
    assert min_staggering(trace) >= 0
    assert not trace.diversity_lost


@st.composite
def rate_blocks(draw):
    """Many schedules of one length, as (head, trail) rows of one kernel block."""
    ticks = draw(st.integers(min_value=1, max_value=8))
    rates = st.lists(st.integers(min_value=0, max_value=4), min_size=ticks, max_size=ticks)
    return draw(st.lists(st.tuples(rates, rates), min_size=1, max_size=64))


@settings(max_examples=200, deadline=None)
@given(
    rows=rate_blocks(),
    period=st.integers(min_value=1, max_value=3),
    latency=st.integers(min_value=0, max_value=2),
    threshold=st.integers(min_value=0, max_value=12),
)
def test_fast_min_matches_full_simulator(rows, period, latency, threshold):
    # the brute-force kernel and the trace-building simulator must agree on
    # the minimum staggering, or exhaustive_check verdicts mean nothing; every
    # row of one block must agree, or rows leak into each other.
    heads = np.array([head for head, _ in rows], dtype=np.int64)
    trails = np.array([trail for _, trail in rows], dtype=np.int64)
    fast = _min_staggering_block(zip(heads.T, trails.T), len(rows), period, latency, threshold)
    for (head, trail), row_minimum in zip(rows, fast):
        schedule = Schedule.of(head, trail, period_ticks=period, suspend_latency_ticks=latency)
        full = min_staggering(simulate(schedule, threshold=threshold))
        # the kernel seeds its minimum with the tick-0 staggering of 0, nothing else differs
        assert row_minimum == min(full, 0)


def test_schedule_csv_round_trip():
    schedule = Schedule.of([1, 2, 0], [0, 2, 2], period_ticks=2, suspend_latency_ticks=1)
    buf = io.StringIO()
    write_schedule_csv(schedule, buf)
    assert buf.getvalue().splitlines()[0] == "tick,head_delta,trail_delta"
    parsed = read_schedule_csv(
        io.StringIO(buf.getvalue()), period_ticks=2, suspend_latency_ticks=1
    )
    assert parsed == schedule


def test_schedule_csv_rejects_bad_input():
    with pytest.raises(ValueError):
        read_schedule_csv(io.StringIO("nope\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_schedule_csv(io.StringIO("tick,head_delta,trail_delta\n2,1,1\n"))
    with pytest.raises(ValueError):
        read_schedule_csv(io.StringIO("tick,head_delta,trail_delta\n1,1\n"))
