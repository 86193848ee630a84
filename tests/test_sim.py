"""Simulator semantics, the brute-force safety theorem, and schedule CSV."""

import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlockstep import sim
from softlockstep.calibration import calibrate_scripted
from softlockstep.core import Action, DiversityLossPolicy, MonitorConfig
from softlockstep.formats import read_schedule_csv, write_schedule_csv
from softlockstep.monitor import run_scripted
from softlockstep.progress import ScriptedSource
from softlockstep.sim import (
    INT64_MAX,
    CheckResult,
    EmptyTrace,
    Schedule,
    SearchSpaceTooLarge,
    exhaustive_check,
    min_staggering,
    simulate,
)


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


@pytest.mark.parametrize("entry_point", [
    ScriptedSource,
    # An invalid config too: the schedule's errors come first.
    lambda schedule: run_scripted(schedule, MonitorConfig(threshold_instructions=0)),
    lambda schedule: simulate(schedule, threshold=1),
    calibrate_scripted,
], ids=["ScriptedSource", "run_scripted", "simulate", "calibrate_scripted"])
@pytest.mark.parametrize("schedule, message", [
    (Schedule.of([1, -1], [1, 1]), "deltas must be non-negative"),
    (Schedule.of([1, 1], [1, 1], period_ticks=0), "period_ticks must be >= 1"),
    (Schedule.of([1, 1], [1, 1], suspend_latency_ticks=-1), "suspend_latency_ticks must be >= 0"),
], ids=["negative-delta", "period-0", "negative-latency"])
def test_every_scripted_entry_point_validates_the_schedule_alike(entry_point, schedule, message):
    with pytest.raises(ValueError) as caught:
        entry_point(schedule)
    assert str(caught.value) == message


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
def test_exhaustive_equals_the_naive_enumeration(alphabet):
    # Three ticks for three letters keeps the naive loop to seconds. Period 2
    # divides neither 3 nor 4 ticks, nor period 3 four.
    ticks = 4 if len(alphabet) < 3 else 3
    for period, latency, threshold in itertools.product(range(1, 4), range(3), range(-1, 10)):
        expected = naive_check(alphabet, ticks, period, latency, threshold)
        assert exhaustive_check(alphabet, ticks, period, latency, threshold) == expected


@pytest.mark.parametrize("alphabet", [(0, 1, 2, 3), (0, 2, 4, 6)],
                         ids=lambda alphabet: ",".join(map(str, alphabet)))
def test_exhaustive_equals_the_naive_enumeration_where_pairs_share_a_step(alphabet):
    # Four letters in arithmetic progression give 16 rate pairs but only 7
    # steps, so most steps are reached by several digit pairs and the least
    # must win. At three ticks and period 1 a running trail is expanded at
    # tick 2; at two ticks none is. Thresholds from 1 up to r * (P + L).
    rate = max(alphabet)
    for period, latency in ((1, 0), (1, 1), (2, 0), (2, 1)):
        bound = rate * (period + latency)
        for threshold in sorted({1, bound // 2, bound - 1, bound}):
            expected = naive_check(alphabet, 3, period, latency, threshold)
            assert exhaustive_check(alphabet, 3, period, latency, threshold) == expected


def test_an_unsorted_alphabet_with_duplicates_checks_its_set():
    for period, latency, threshold in ((1, 0, 1), (1, 1, 2), (1, 1, 3), (2, 1, 4), (1, 1, 4)):
        expected = naive_check((0, 1, 2), 3, period, latency, threshold)
        assert exhaustive_check([2, 0, 1, 1], 3, period, latency, threshold) == expected


def first_negative_tick(schedule, threshold):
    return next(tick for tick, stag in simulate(schedule, threshold).instants if stag < 0)


def test_the_first_counterexample_may_go_negative_later_than_another():
    # Head 0,0,1,0 goes negative only at tick 4, head 1,0,0,0 already at
    # tick 2: a walk that stopped at the first tick with a candidate would
    # return the later head.
    args = ((0, 1, 2), 4, 1, 1, 1)
    result = exhaustive_check(*args)
    assert result == naive_check(*args)
    assert result.schedules_checked == 246
    assert result.counterexample == Schedule.of((0, 0, 1, 0), (0, 0, 0, 2), suspend_latency_ticks=1)
    assert first_negative_tick(result.counterexample, threshold=1) == 4
    later = Schedule.of((1, 0, 0, 0), (0, 2, 0, 0), suspend_latency_ticks=1)
    assert first_negative_tick(later, threshold=1) == 2


def test_merged_prefixes_keep_the_least():
    # After tick 2 head 0,1 and head 1,0, each under trail 0,0, reach the
    # same state: staggering 1 with the trail just resumed. The least prefix
    # gives schedule 68; the other one would give 132.
    args = ((0, 1), 4, 2, 0, 1)
    result = exhaustive_check(*args)
    assert result == naive_check(*args)
    assert result.schedules_checked == 68
    assert result.counterexample == Schedule.of((0, 1, 0, 0), (0, 0, 1, 1), period_ticks=2)
    for head in ((0, 1, 0, 0), (1, 0, 0, 0)):
        trace = simulate(Schedule.of(head, (0, 0, 1, 1), period_ticks=2), threshold=1)
        assert trace.instants[1] == (2, 1) and actions(trace)[0] is Action.RESUME
        assert min_staggering(trace) < 0


@settings(max_examples=80, deadline=None)
@given(
    alphabet=st.one_of(
        st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
        st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=3),
    ),
    ticks=st.integers(min_value=1, max_value=3),
    period=st.integers(min_value=1, max_value=4),
    latency=st.one_of(st.integers(min_value=0, max_value=3), st.just(10**30)),
    threshold=st.integers(min_value=-1, max_value=60),
)
def test_exhaustive_equals_the_naive_enumeration_on_random_inputs(
        alphabet, ticks, period, latency, threshold):
    expected = naive_check(alphabet, ticks, period, latency, threshold)
    assert exhaustive_check(alphabet, ticks, period, latency, threshold) == expected


@settings(max_examples=150, deadline=None)
@given(
    alphabet=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
    ticks=st.integers(min_value=1, max_value=5),
    period=st.integers(min_value=1, max_value=4),
    latency=st.one_of(st.integers(min_value=0, max_value=3), st.just(10**30)),
)
def test_safety_is_monotone_in_the_threshold(alphabet, ticks, period, latency):
    # A safe threshold stays safe when raised by one, so a search for the
    # least safe threshold may bisect.
    safe = [exhaustive_check(alphabet, ticks, period, latency, threshold).safe
            for threshold in range(-1, 20)]
    assert safe == sorted(safe)


def test_the_costliest_accepted_checks_stay_fast(fails_after):
    # The widest alphabets the earlier schedule-count bound accepted for one,
    # two, three, five and eleven ticks, with rates far apart so that few
    # prefixes share a state; one letter over the most ticks taken; and a
    # walk whose work is just under the budget (one letter more passes it).
    spread = [3**k for k in range(15)]
    with fails_after(2):
        assert exhaustive_check(range(7000), 1, 1, 0, 0).schedules_checked == 7000**2
        assert not exhaustive_check(range(60), 2, 1, 0, 0).safe
        assert exhaustive_check(spread, 3, 1, 0, 3**14).schedules_checked == 15**6
        assert not exhaustive_check(spread, 3, 1, 0, 3**13).safe
        assert exhaustive_check([0, 3], 11, 1, 0, 3).schedules_checked == 2**22
        assert exhaustive_check(spread[:5], 5, 2, 1, 3**4 * 3).schedules_checked == 5**10
        assert exhaustive_check([1], sim.MAX_WALK_WORK, 1, 1, 1).safe
        assert exhaustive_check(range(353), 4, 1, 1, 352 * 2).safe


def test_every_check_the_schedule_count_bound_accepted_is_still_accepted():
    # The bound before the walk counted its own work accepted these widest
    # alphabets at each tick count (at most 10M schedules), and one letter
    # over 12,000 ticks. Rates are spread as powers where that fits int64; a
    # check of two ticks or fewer never follows a running trail's table.
    widest = {1: 7010, 2: 70, 3: 15, 4: 7, 5: 5, 6: 3, 7: 3, 8: 2, 9: 2, 10: 2, 11: 2}
    for ticks, size in widest.items():
        alphabet = [3**k for k in range(size)] if size <= 15 else range(size)
        top = max(alphabet)
        for period, latency in ((1, 0), (1, 1), (2, 1)):
            for threshold in (0, top * (period + latency) - 1, top * (period + latency)):
                exhaustive_check(alphabet, ticks, period, latency, threshold)
    assert exhaustive_check([1], 12_000, 1, 1, 1).safe


def test_a_tick_prunes_its_states_by_its_least_candidate():
    # Nine letters over 152 ticks. A walk that expanded some states of a tick
    # before it knew all of the tick's candidates passed the work bound by
    # tick 136; pruned by each tick's least candidate, it answers.
    alphabet, ticks, period, latency, threshold = (1, 2, 4, 8, 11, 13, 21, 27, 30), 152, 1, 2, 61
    result = exhaustive_check(alphabet, ticks, period, latency, threshold)
    assert not result.safe and result.schedules_checked == 315
    # Exact: in head-major order schedules 1 to 314 hold and 315 does not.
    head = (alphabet[0],) * ticks
    schedules = [Schedule.of(head, trail, period_ticks=period, suspend_latency_ticks=latency)
                 for trail in itertools.islice(itertools.product(alphabet, repeat=ticks), 315)]
    lowest = [min_staggering(simulate(schedule, threshold)) for schedule in schedules]
    assert min(lowest[:-1]) >= 0 > lowest[-1]
    assert result.counterexample == schedules[-1]


@pytest.mark.parametrize("alphabet, period, latency, ticks, safe", [
    ([0, 1], 3, 2, 400, 5),
    ([0, 1, 2], 1, 1, 200, 4),
    (range(8), 2, 1, 70, 21),
], ids=["0,1-over-400-ticks", "0,1,2-over-200-ticks", "0..7-over-70-ticks"])
def test_the_bound_is_tight_at_long_horizons(alphabet, period, latency, ticks, safe):
    # threshold = r * (P + L) holds over every schedule, one less does not.
    assert exhaustive_check(alphabet, ticks, period, latency, safe).safe
    unsafe = exhaustive_check(alphabet, ticks, period, latency, safe - 1)
    assert min_staggering(simulate(unsafe.counterexample, threshold=safe - 1)) < 0


def test_exhaustive_rejects_oversized_spaces():
    # 3^(2*4192) has 4,001 digits; 3^(2*4191) is walked (and refused for its work).
    with pytest.raises(SearchSpaceTooLarge, match="4000 digits"):
        exhaustive_check([0, 1, 2], ticks=4192, period_ticks=1,
                         suspend_latency_ticks=0, threshold=1)


def test_exhaustive_bounds_the_space_without_building_its_power(fails_after):
    # 3^(2*10^7) alone takes seconds to build and has millions of digits.
    with fails_after(2), pytest.raises(SearchSpaceTooLarge, match="exceeds"):
        exhaustive_check([0, 1, 2], ticks=10**7, period_ticks=1,
                         suspend_latency_ticks=0, threshold=4)


def test_a_one_rate_check_is_refused_for_its_length(fails_after):
    # One schedule, but the walk still steps through every tick.
    with fails_after(2), pytest.raises(SearchSpaceTooLarge, match="exceeds"):
        exhaustive_check([0], ticks=10**12, period_ticks=1,
                         suspend_latency_ticks=0, threshold=0)


def test_a_walk_past_its_work_bound_is_refused(fails_after):
    with fails_after(2), pytest.raises(SearchSpaceTooLarge, match="state steps"):
        exhaustive_check(range(354), 4, 1, 1, 353 * 2)


def test_a_step_table_past_the_work_bound_is_refused_before_it_is_built(fails_after):
    # 5,000 letters have 25M rate pairs, which the states after tick 2 would follow.
    with fails_after(2), pytest.raises(SearchSpaceTooLarge, match="by tick 2"):
        exhaustive_check(range(5000), 3, 1, 0, 0)


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


@pytest.mark.parametrize("text, message", [
    ("tick,head_delta,trail_delta\n\n\n1,1\n", "line 4: expected 3 fields, got 2"),
    ("tick,head_delta,trail_delta\n1,x,2\n", "line 2: invalid literal"),
    ("\ntick,head_delta,trail_delta\n1,1,1\n\n3,1,1\n", "line 5: ticks must be consecutive"),
], ids=["blank-lines", "not-a-number", "gap"])
def test_schedule_csv_errors_name_the_file_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        read_schedule_csv(io.StringIO(text))
