"""Threshold arithmetic, calibration reports, scripted and real measurement."""

import ast
import inspect
import io
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softlockstep import calibration, linuxperf, replication, workloads
from softlockstep.calibration import (
    CalibrationReport,
    calibrate,
    calibrate_scripted,
    read_report,
    recommend_threshold,
    suspend_latency_over_probes,
    write_report,
)
from softlockstep.cli import main
from softlockstep.core import MAX_CHECK_PERIOD_US, Role
from softlockstep.progress import CounterUnavailable, SpawnFailure
from softlockstep.sim import Schedule, exhaustive_check, min_staggering, simulate

try:
    linuxperf.probe_counter("auto")
    _counter_reason = ""
except CounterUnavailable as exc:
    _counter_reason = str(exc)

requires_counter = pytest.mark.skipif(
    bool(_counter_reason), reason=f"no progress counter: {_counter_reason}"
)


# ------------------------------------------------------------- threshold

def test_recommended_threshold_worked_examples():
    # 1e9/s over 100 us + 50 us at margin 2: exactly 300k units.
    assert recommend_threshold(1e9, 100, 50, 2.0) == 300_000
    # 2.6e9/s over a 1 ms period, no latency, margin 1: exactly 2.6M.
    assert recommend_threshold(2.6e9, 1000, 0, 1.0) == 2_600_000


def test_threshold_is_the_true_ceiling_not_a_float_approximation():
    # The float product 1e9 * 1181/1e6 * 1.1 rounds to 1299100.0, but the
    # exact product of those binary values is a hair above it.
    assert math.ceil(1e9 * (1091 + 90) / 1_000_000 * 1.1) == 1_299_100
    assert recommend_threshold(1e9, 1091, 90, 1.1) == 1_299_101


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False, allow_nan=False),
    st.integers(1, 10**9),
    st.integers(0, 10**9),
    st.floats(min_value=1, allow_infinity=False, allow_nan=False),
)
@example(1e9, 1091, 90, 1.1)
@example(1e9, 100, 50, 2.0)
@example(2.6e9, 1000, 0, 1.0)
@example(5e-324, 1, 0, 1.0)
@example(1.7976931348623157e308, 10**6, 10**6, 1.7976931348623157e308)
@example(3, 7, 0, 1)
@example(0.1, 3, 0, 1.0000000000000002)
def test_threshold_agrees_with_exact_fractions(rate, period, latency, margin):
    exact = Fraction(rate) * Fraction(period + latency, 10**6) * Fraction(margin)
    assert recommend_threshold(rate, period, latency, margin) == math.ceil(exact)


def test_threshold_input_validation():
    with pytest.raises(ValueError, match="peak_rate"):
        recommend_threshold(0, 100, 0, 1.0)
    with pytest.raises(ValueError, match="check_period_us"):
        recommend_threshold(1e9, 0, 0, 1.0)
    with pytest.raises(ValueError, match="monitor_latency_us"):
        recommend_threshold(1e9, 100, -1, 1.0)
    with pytest.raises(ValueError, match="safety_margin"):
        recommend_threshold(1e9, 100, 0, 0.99)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_non_finite_rate_or_margin_is_refused_by_name(value):
    with pytest.raises(ValueError, match="peak_rate must be finite"):
        recommend_threshold(value, 100, 0, 1.0)
    with pytest.raises(ValueError, match="safety_margin must be finite"):
        recommend_threshold(1e9, 100, 0, value)
    report = CalibrationReport(
        counter="scripted", peak_rate=value, check_period_us=100,
        monitor_latency_us=0, safety_margin=value, recommended_threshold=10,
    )
    assert report.validate() == ["peak_rate must be finite", "safety_margin must be finite"]


@settings(max_examples=200, deadline=None)
@given(
    rate=st.floats(min_value=1.0, max_value=1e10),
    period=st.integers(min_value=1, max_value=10**6),
    latency=st.integers(min_value=0, max_value=10**6),
    margin=st.floats(min_value=1.0, max_value=10.0),
    rate_bump=st.floats(min_value=0.0, max_value=1e9),
    time_bump=st.integers(min_value=0, max_value=10**5),
    margin_bump=st.floats(min_value=0.0, max_value=5.0),
)
def test_threshold_is_monotone_in_every_argument(
    rate, period, latency, margin, rate_bump, time_bump, margin_bump
):
    base = recommend_threshold(rate, period, latency, margin)
    assert recommend_threshold(rate + rate_bump, period, latency, margin) >= base
    assert recommend_threshold(rate, period + time_bump, latency, margin) >= base
    assert recommend_threshold(rate, period, latency + time_bump, margin) >= base
    assert recommend_threshold(rate, period, latency, margin + margin_bump) >= base


@pytest.mark.parametrize("delta,period,latency", [(2, 1, 1), (3, 2, 0), (1, 3, 2)])
def test_recommended_threshold_is_sufficient_in_the_simulator(delta, period, latency):
    # Map 1 tick = 1 us: a constant delta per tick is a rate of delta * 1e6
    # units/s. At margin 1 the recommendation is exactly delta * (P + L),
    # which the brute-force check certifies safe over the whole alphabet.
    threshold = recommend_threshold(delta * 1e6, period, latency, 1.0)
    assert threshold == delta * (period + latency)
    result = exhaustive_check(
        [0, 1, delta], ticks=4, period_ticks=period,
        suspend_latency_ticks=latency, threshold=threshold,
    )
    assert result.safe


# ---------------------------------------------------------------- reports

def report_for(**overrides):
    fields = dict(
        counter="task-clock",
        peak_rate=999655020.5,
        check_period_us=1000,
        gap_max_us=5321,
        monitor_latency_us=191,
        safety_margin=2.0,
    )
    fields.update(overrides)
    fields["recommended_threshold"] = recommend_threshold(
        fields["peak_rate"],
        max(fields["check_period_us"], fields["gap_max_us"]),
        fields["monitor_latency_us"],
        fields["safety_margin"],
    )
    return CalibrationReport(**fields)


def test_report_round_trips_exactly():
    report = report_for(peak_rate=2381179.8371205)
    buf = io.StringIO()
    write_report(report, buf)
    assert read_report(io.StringIO(buf.getvalue())) == report


def test_report_round_trips_through_a_path(tmp_path):
    report = report_for()
    path = tmp_path / "calibration.txt"
    write_report(report, path)
    assert read_report(path) == report


def test_report_file_is_stable_key_value_lines():
    buf = io.StringIO()
    write_report(report_for(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "counter=task-clock"
    assert lines[1] == "peak_rate=999655020.5"
    assert [line.split("=")[0] for line in lines] == [
        "counter", "peak_rate", "check_period_us", "gap_max_us",
        "monitor_latency_us", "safety_margin", "recommended_threshold",
    ]


def test_a_report_without_a_gap_derives_from_its_nominal_period():
    # Written before gap_max_us was recorded: the threshold covers P + L.
    text = ("counter=task-clock\npeak_rate=1000000.0\ncheck_period_us=50\n"
            "monitor_latency_us=50\nsafety_margin=1.0\nrecommended_threshold=100\n")
    report = read_report(io.StringIO(text))
    assert (report.gap_max_us, report.recommended_threshold) == (0, 100)
    assert report.validate() == []


def test_the_threshold_covers_the_longer_of_the_period_and_the_gap():
    assert report_for().recommended_threshold == recommend_threshold(999655020.5, 5321, 191, 2.0)
    assert report_for(gap_max_us=10).recommended_threshold == recommend_threshold(
        999655020.5, 1000, 191, 2.0)
    tampered = report_for()._replace(gap_max_us=1000)
    assert "does not match its own fields" in tampered.validate()[0]
    assert report_for()._replace(gap_max_us=-1).validate() == ["gap_max_us must be non-negative"]


def test_report_reader_accepts_comments_and_blank_lines():
    buf = io.StringIO()
    write_report(report_for(), buf)
    text = "# calibration\n\n" + buf.getvalue()
    assert read_report(io.StringIO(text)) == report_for()


def test_report_reader_rejects_tampering_and_gaps():
    buf = io.StringIO()
    write_report(report_for(), buf)
    good = buf.getvalue()

    tampered = good.replace(
        f"recommended_threshold={report_for().recommended_threshold}",
        f"recommended_threshold={report_for().recommended_threshold + 1}",
    )
    with pytest.raises(ValueError, match="does not match"):
        read_report(io.StringIO(tampered))

    missing = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError, match="missing"):
        read_report(io.StringIO(missing))

    with pytest.raises(ValueError, match="key=value"):
        read_report(io.StringIO("what even is this\n"))


@pytest.mark.parametrize("key, value, message", [
    ("peak_rate", "abc", "line 3: peak_rate: could not convert"),
    ("check_period_us", "1.5", "line 4: check_period_us: invalid literal"),
])
def test_report_reader_names_the_key_it_cannot_parse(key, value, message):
    buf = io.StringIO()
    write_report(report_for(), buf)
    lines = ["# calibration"] + buf.getvalue().splitlines()
    text = "\n".join(f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines)
    with pytest.raises(ValueError, match=f"^{message}"):
        read_report(io.StringIO(text))


def counts_report(**overrides):
    fields = dict(counter="task-clock", peak_rate=None, check_period_us=1000,
                  monitor_latency_us=None, safety_margin=1.5, recommended_threshold=6_046_502,
                  gap_max_us=5321, gap_progress_max=4_000_001, stop_overshoot_max=31_000)
    return CalibrationReport(**{**fields, **overrides})


def test_a_counter_unit_report_writes_its_two_counts_and_round_trips():
    buf = io.StringIO()
    write_report(counts_report(), buf)
    assert [line.split("=")[0] for line in buf.getvalue().splitlines()] == [
        "counter", "check_period_us", "gap_max_us", "gap_progress_max",
        "stop_overshoot_max", "safety_margin", "recommended_threshold",
    ]
    assert read_report(io.StringIO(buf.getvalue())) == counts_report()


def test_a_counter_unit_report_derives_its_threshold_from_the_two_counts_alone():
    # ceil((4,000,001 + 31,000) * 1.5) = 6,046,502: neither the period nor
    # the longest gap enters it.
    assert counts_report().validate() == []
    assert counts_report(gap_max_us=0, check_period_us=7).validate() == []
    tampered = counts_report(stop_overshoot_max=31_001)
    assert "does not match its own fields (expected 6046503)" in tampered.validate()[0]
    assert counts_report(stop_overshoot_max=-1).validate() == [
        "stop_overshoot_max must be non-negative"]
    assert counts_report(gap_progress_max=10**400).validate()[0].startswith(
        "recommended_threshold 6046502 does not match")


def test_a_counter_unit_file_names_what_it_is_missing():
    text = "counter=task-clock\ncheck_period_us=1000\nsafety_margin=2.0\nrecommended_threshold=4\n"
    with pytest.raises(ValueError, match="missing gap_progress_max, stop_overshoot_max$"):
        read_report(io.StringIO(text))
    with pytest.raises(ValueError, match="missing stop_overshoot_max$"):
        read_report(io.StringIO(text + "gap_progress_max=2\n"))
    report = read_report(io.StringIO(text + "gap_progress_max=2\nstop_overshoot_max=0\n"))
    assert (report.gap_max_us, report.recommended_threshold) == (0, 4)


def test_report_validate_flags_bad_fields():
    report = CalibrationReport(
        counter="scripted", peak_rate=-1.0, check_period_us=0,
        monitor_latency_us=-2, safety_margin=0.5, recommended_threshold=10,
    )
    problems = report.validate()
    assert len(problems) == 4


# --------------------------------------------------- scripted measurement

class _OvershootSession:
    """A head that runs between probes, and on by the next overshoot at each freeze."""

    def __init__(self, overshoots):
        self.overshoots = iter(overshoots)
        self.count = 0

    def resume(self, role):
        assert role is Role.HEAD
        self.count += 1000

    def read_count(self, role):
        return self.count

    def freeze(self, role):
        self.count += next(self.overshoots)


def test_the_latency_probe_takes_the_largest_stop_overshoot():
    # What the head ran between probes is not latency; only what it ran
    # between the count read and the reported stop is.
    assert suspend_latency_over_probes(_OvershootSession([3, 9, 0, 4]), probes=4) == 9


def test_zero_latency_source_measures_zero():
    assert suspend_latency_over_probes(_OvershootSession([0] * 5), probes=5) == 0


def test_measurement_preconditions():
    with pytest.raises(ValueError, match="probe"):
        suspend_latency_over_probes(_OvershootSession([]), probes=0)


def test_calibrate_scripted_is_exact_end_to_end():
    schedule = Schedule.of([5] * 60, [0] * 60, period_ticks=8, suspend_latency_ticks=2)
    report = calibrate_scripted(schedule, safety_margin=2.0)
    assert report.counter == "scripted"
    assert (report.peak_rate, report.monitor_latency_us) == (None, None)
    assert report.gap_progress_max == 40  # 5 per tick over 8 ticks
    assert report.stop_overshoot_max == 10  # 5 per tick over 2 ticks
    assert report.gap_max_us == 8  # scripted checks come on time
    assert report.recommended_threshold == 100  # (40 + 10) * 2
    assert report.validate() == []


def test_calibrate_scripted_refuses_a_schedule_with_no_progress():
    with pytest.raises(ValueError, match="no progress was seen"):
        calibrate_scripted(Schedule.of([0] * 10, [0] * 10, suspend_latency_ticks=3))


def test_calibrate_scripted_validates_inputs():
    with pytest.raises(ValueError, match="deltas must be non-negative"):
        calibrate_scripted(Schedule.of([1, -3], [0, 0]))
    with pytest.raises(ValueError, match="suspend_latency_ticks"):
        calibrate_scripted(Schedule.of([1] * 10, [0] * 10, suspend_latency_ticks=-2))


@pytest.mark.parametrize("head, trail", [
    ([1] * 10 + [9] * 10, [0] * 20),
    ([1] * 10 + [9] * 9, [0] * 19),
    ([1] * 10 + [9] * 5, [0] * 20),
], ids=["whole-window", "burst-at-the-end", "short-burst"])
def test_calibrate_scripted_sees_every_head_tick_at_its_own_rate(head, trail):
    # r_max in the bound r * (P + L) is the fastest single tick: a burst
    # late in the head or shorter than ten ticks must not read slower.
    report = calibrate_scripted(Schedule.of(head, trail, period_ticks=8))
    assert (report.gap_progress_max, report.recommended_threshold) == (72, 144)


@pytest.mark.parametrize("ticks, latency", [(5, 4), (1, 0), (11, 10)])
def test_calibrate_scripted_reads_a_short_head_as_a_long_one(ticks, latency):
    # The schedule states its rate and latency, so a head too short to have
    # measured them on gives the report of a 60-tick one.
    short = Schedule.of([5] * ticks, [0] * 60, period_ticks=8, suspend_latency_ticks=latency)
    long = Schedule.of([5] * 60, [0] * 60, period_ticks=8, suspend_latency_ticks=latency)
    report = calibrate_scripted(short)
    assert report == calibrate_scripted(long)
    assert (report.gap_progress_max, report.stop_overshoot_max) == (40, 5 * latency)


def test_calibrate_scripted_takes_the_rate_of_a_faster_trail():
    report = calibrate_scripted(Schedule.of([1] * 40, [5] * 40, suspend_latency_ticks=1),
                                safety_margin=1.0)
    assert (report.gap_progress_max, report.recommended_threshold) == (5, 10)


scripted_calibrations = st.integers(1, 7).flatmap(lambda top: st.builds(
    Schedule.of,
    st.lists(st.integers(0, top), min_size=1, max_size=12),
    st.lists(st.integers(0, top), min_size=1, max_size=12),
    period_ticks=st.integers(1, 4),
    suspend_latency_ticks=st.integers(0, 3),
).filter(lambda s: any(s.head_deltas + s.trail_deltas)))


@settings(max_examples=400, deadline=None)
@given(scripted_calibrations)
@example(Schedule.of([1] * 40, [5] * 40, suspend_latency_ticks=1))
def test_a_scripted_recommendation_keeps_the_staggering_non_negative(schedule):
    # Margin 1: exactly r * (P + L) of the schedule, for a trail faster than
    # the head too.
    report = calibrate_scripted(schedule, safety_margin=1.0)
    assert min_staggering(simulate(schedule, report.recommended_threshold)) >= 0


def test_calibrate_scripted_measures_a_head_exactly_long_enough():
    report = calibrate_scripted(Schedule.of([5] * 10, [], period_ticks=8, suspend_latency_ticks=8))
    assert (report.gap_progress_max, report.stop_overshoot_max) == (40, 40)
    assert report.recommended_threshold == 160  # ceil(5e6 * 16us * 2)


# ------------------------------------------------------- real measurement

def test_real_measurement_preconditions():
    with pytest.raises(ValueError, match="duration_us"):
        calibrate(duration_us=99)


@pytest.mark.parametrize("period_us, duration_us", [(1000, 99_999), (20_000, 199_999)],
                         ids=["under-100-ms", "under-10-periods"])
def test_calibrate_refuses_a_short_run_before_spawning(monkeypatch, period_us, duration_us):
    spawned = []
    monkeypatch.setattr(replication, "spawn_replicas", lambda *a, **k: spawned.append(a))
    with pytest.raises(ValueError, match="duration_us must cover at least 10 check periods"):
        calibrate(check_period_us=period_us, duration_us=duration_us)
    assert spawned == []


def test_calibration_waits_out_no_period_of_its_own():
    # Rate and gap come from the enforcement loop's samples, and the latency
    # from counts read around the session's freeze: calibration keeps no rate
    # loop and no poll loop beside the loop it certifies.
    tree = ast.parse(inspect.getsource(calibration))
    assert not any(isinstance(node, ast.Attribute) and node.attr == "wait_one_period"
                   for node in ast.walk(tree))


@pytest.mark.parametrize("argument, fragment", [
    ({"check_period_us": 0}, "check_period_us must be positive"),
    ({"safety_margin": 0.5}, "safety_margin must be >= 1"),
    ({"safety_margin": math.inf}, "safety_margin must be finite"),
    ({"safety_margin": math.nan}, "safety_margin must be finite"),
    ({"check_period_us": MAX_CHECK_PERIOD_US + 1, "duration_us": 10 * (MAX_CHECK_PERIOD_US + 1)},
     f"check period must be at most {MAX_CHECK_PERIOD_US} us"),
], ids=["period-0", "margin-0.5", "margin-inf", "margin-nan", "period-past-the-clock"])
def test_calibrate_rejects_a_bad_period_or_margin_before_spawning(monkeypatch, argument, fragment):
    spawned = []
    monkeypatch.setattr(replication, "spawn_replicas", lambda *a, **k: spawned.append(a))
    with pytest.raises(ValueError, match=fragment):
        calibrate(**{"duration_us": 100_000, **argument})
    assert spawned == []


@requires_counter
def test_real_calibration_produces_a_consistent_report():
    report = calibrate(duration_us=100_000)
    assert report.validate() == []
    assert report.counter in ("instructions", "task-clock")
    assert report.gap_progress_max > 0
    assert report.stop_overshoot_max >= 0
    assert report.gap_max_us >= report.check_period_us
    assert report.recommended_threshold == 2 * (report.gap_progress_max + report.stop_overshoot_max)


@requires_counter
def test_calibration_adds_the_stop_overshoot_in_counter_units(monkeypatch):
    # No rate and no latency: the overshoot enters the threshold as counted.
    monkeypatch.setattr(calibration, "suspend_latency_over_probes", lambda session, probes: 12_345)
    report = calibrate(duration_us=100_000, safety_margin=1.5)
    assert report.stop_overshoot_max == 12_345
    assert report.recommended_threshold == -(-(report.gap_progress_max + 12_345) * 3 // 2)
    assert report.validate() == []


def _crash(inputs, outputs):
    raise RuntimeError("spin replica crashed")


@requires_counter
def test_a_spin_replica_that_dies_fails_the_calibration(monkeypatch, capsys):
    # No threshold is derived from the counts a dead replica left behind.
    spin = workloads.spin_workload
    monkeypatch.setattr(workloads, "spin_workload",
                        lambda iters: spin(iters)._replace(computation=_crash))
    with pytest.raises(SpawnFailure, match="spin replica ended the calibration run"):
        calibrate(duration_us=100_000)
    assert main(["calibrate", "--duration-ms", "100"]) == 70
    captured = capsys.readouterr()
    assert "REPLICA_FAILURE" in captured.err
    assert captured.out == ""
