"""Host calibration: peak progress rate, suspension latency, threshold choice.

The staggering threshold must cover the progress a replica can make between
the moment the monitor decides to suspend and the moment the freeze lands:
one check period plus the suspension latency, at the fastest rate the host
can sustain, times a safety margin. The arithmetic is done in exact rationals
over integer microseconds so that a recommended threshold is reproducible to
the last digit, and every report can be re-derived from its own fields.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .core import MonitorConfig, Role
from .progress import (
    LoopClock,
    ProgressSource,
    RealClock,
    ScriptedSource,
)

_REPORT_KEYS = (
    "counter",
    "peak_rate",
    "check_period_us",
    "monitor_latency_us",
    "safety_margin",
    "recommended_threshold",
)
# Fixed measurement settings. A real calibration samples the rate over
# 20 ms windows and polls a suspended replica every 100 us; a latency probe
# ends after three polls without a count change; a scripted calibration
# samples the rate over 1-tick windows, one per head delta, and needs only
# three probes, since its latency is exact by construction.
_WINDOW_US = 20_000
_POLL_US = 100
_SETTLE_POLLS = 3
_SCRIPTED_PROBES = 3


def recommend_threshold(
    peak_rate: float,
    check_period_us: int,
    monitor_latency_us: int,
    safety_margin: float,
) -> int:
    """ceil(peak_rate * (period + latency) * margin), computed exactly.

    peak_rate is in progress units per second, the durations in integer
    microseconds. The product is taken over the floats' exact integer ratios,
    so the result is the true ceiling, not the ceiling of an approximation.
    """
    problems = _range_problems(peak_rate, check_period_us, monitor_latency_us, safety_margin)
    if problems:
        raise ValueError("; ".join(problems))
    rate_num, rate_den = peak_rate.as_integer_ratio()
    margin_num, margin_den = safety_margin.as_integer_ratio()
    numerator = rate_num * (check_period_us + monitor_latency_us) * margin_num
    return -(-numerator // (rate_den * 1_000_000 * margin_den))


def _range_problems(peak_rate: float, check_period_us: int, monitor_latency_us: int,
                    safety_margin: float) -> list[str]:
    """Every argument of recommend_threshold that is out of range, each by name."""
    problems = []
    if not math.isfinite(peak_rate):
        problems.append("peak_rate must be finite")
    elif peak_rate <= 0:
        problems.append("peak_rate must be positive")
    if check_period_us <= 0:
        problems.append("check_period_us must be positive")
    if monitor_latency_us < 0:
        problems.append("monitor_latency_us must be non-negative")
    if not math.isfinite(safety_margin):
        problems.append("safety_margin must be finite")
    elif safety_margin < 1:
        problems.append("safety_margin must be >= 1")
    return problems


class CalibrationReport(NamedTuple):
    """Everything needed to re-derive (and therefore audit) a threshold."""

    counter: str
    peak_rate: float
    check_period_us: int
    monitor_latency_us: int
    safety_margin: float
    recommended_threshold: int

    def validate(self) -> list[str]:
        fields = (self.peak_rate, self.check_period_us, self.monitor_latency_us, self.safety_margin)
        problems = _range_problems(*fields)
        if not problems:
            expected = recommend_threshold(*fields)
            if expected != self.recommended_threshold:
                problems.append(
                    f"recommended_threshold {self.recommended_threshold} does not "
                    f"match its own fields (expected {expected})"
                )
        return problems


def write_report(report: CalibrationReport, sink) -> None:
    """Serialize as stable key=value lines (floats via repr, round-trip safe)."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w") as f:
            write_report(report, f)
        return
    for key in _REPORT_KEYS:
        sink.write(f"{key}={_render(getattr(report, key))}\n")


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_report(source) -> CalibrationReport:
    """Parse key=value lines; refuses internally inconsistent reports."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as f:
            return read_report(f)
    values: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = (lineno, value.strip())
    missing = [k for k in _REPORT_KEYS if k not in values]
    if missing:
        raise ValueError(f"calibration file is missing {', '.join(missing)}")
    fields = []
    for key, parse in zip(_REPORT_KEYS, (str, float, int, int, float, int)):
        lineno, value = values[key]
        try:
            fields.append(parse(value))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    report = CalibrationReport(*fields)
    problems = report.validate()
    if problems:
        raise ValueError("; ".join(problems))
    return report


def peak_rate_over_windows(source: ProgressSource, clock: LoopClock, windows: int) -> float:
    """Maximum per-window progress rate (units per second) of the head.

    Works over any source/clock pair: real counters with a sleeping clock,
    or a scripted source where the result is exact by construction.
    """
    if windows < 1:
        raise ValueError("need at least one window")
    best = 0.0
    prev_count = source.read_count(Role.HEAD)
    prev_ns = clock.now_ns()
    for _ in range(windows):
        clock.wait_one_period()
        count = source.read_count(Role.HEAD)
        now = clock.now_ns()
        if now > prev_ns:
            rate = (count - prev_count) * 1e9 / (now - prev_ns)
            best = max(best, rate)
        prev_count, prev_ns = count, now
    return best


def suspend_latency_over_probes(source: ProgressSource, clock: LoopClock, probes: int) -> int:
    """Worst observed suspension latency of the head in whole microseconds (ceiling).

    Each probe suspends the running head and then polls its count until it
    has been stable for _SETTLE_POLLS consecutive polls; the latency is the
    time from the suspend call to the last observed count change. Taking the
    maximum over probes keeps the estimate conservative, which is the safe
    direction for the threshold formula.
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    worst_ns = 0
    for _ in range(probes):
        source.resume(Role.HEAD)
        # Let it run so a frozen counter is distinguishable from a slow one.
        clock.wait_one_period()
        clock.wait_one_period()
        suspended_at = clock.now_ns()
        source.suspend(Role.HEAD)
        last_change = suspended_at
        prev = source.read_count(Role.HEAD)
        stable = 0
        while stable < _SETTLE_POLLS:
            clock.wait_one_period()
            count = source.read_count(Role.HEAD)
            if count != prev:
                last_change = clock.now_ns()
                prev = count
                stable = 0
            else:
                stable += 1
        worst_ns = max(worst_ns, last_change - suspended_at)
    source.resume(Role.HEAD)
    return math.ceil(worst_ns / 1000)


def calibrate_scripted(
    schedule,
    check_period_us: int = 1000,
    safety_margin: float = 2.0,
) -> CalibrationReport:
    """Calibrate against a scripted schedule: exact results, no privileges.

    The schedule's head deltas define the measured rate (the largest delta d
    per 1 us tick gives exactly d * 1e6 units per second, the r_max of the
    bound r * (P + L)) and its suspend_latency_ticks the measured latency
    (exactly that many us). Rate and latency run over two fresh sources, each
    advancing one tick per period, so neither measurement consumes the
    other's delta stream; the rate is read over one window per head delta.
    The head must script the first latency probe, which suspends it after two
    ticks and sees it accrue for the latency's ticks after that; a shorter
    head would read as a lower latency, and so an unsafe threshold.
    """
    # Checked as given, although both measuring sources replace its period.
    ScriptedSource(schedule)
    latency_ticks = schedule.suspend_latency_ticks
    needed = latency_ticks + 2
    if len(schedule.head_deltas) < needed:
        raise ValueError(
            f"scripted calibration needs at least {needed} head ticks (a "
            f"latency probe of {latency_ticks} + 2 ticks), got {len(schedule.head_deltas)}"
        )

    per_tick = schedule._replace(period_ticks=1)
    source = ScriptedSource(per_tick)
    rate = peak_rate_over_windows(source, source, windows=len(schedule.head_deltas))
    source = ScriptedSource(per_tick)
    latency_us = suspend_latency_over_probes(source, source, probes=_SCRIPTED_PROBES)
    return _report("scripted", rate, check_period_us, latency_us, safety_margin)


def calibrate(
    check_period_us: int = 1000,
    safety_margin: float = 2.0,
    duration_us: int = 300_000,
    probes: int = 30,
    counter: str = "auto",
) -> CalibrationReport:
    """Measure this host and recommend a threshold for the given period.

    One busy replica session serves both measurements; the report carries the
    resolved counter kind so thresholds are never reused across metrics.
    Every argument is checked before any replica is spawned.
    """
    if duration_us < 100_000:
        raise ValueError("duration_us must be at least 100000 (100 ms) for a stable estimate")
    if probes < 30:
        raise ValueError("need at least 30 probes for a usable worst case")
    recommend_threshold(1.0, check_period_us, 0, safety_margin)  # refuses a bad period or margin
    # Local imports: linuxperf and replication pull in the ctypes, fork and
    # mmap machinery that threshold arithmetic, report files and scripted
    # calibration never need.
    from . import linuxperf
    from .replication import spawn_replicas
    from .workloads import spin_workload

    resolved = linuxperf.probe_counter(counter)

    workload = spin_workload(10**15)  # effectively runs until killed
    config = MonitorConfig(threshold_instructions=1)
    session = spawn_replicas(workload.computation, workload.payload, config, counter=resolved)
    try:
        rate = peak_rate_over_windows(
            session, RealClock(_WINDOW_US), windows=duration_us // _WINDOW_US
        )
        latency_us = suspend_latency_over_probes(session, RealClock(_POLL_US), probes=probes)
    finally:
        session.release()
    return _report(session.counter_kind, rate, check_period_us, latency_us, safety_margin)


def _report(
    counter: str, rate: float, check_period_us: int, latency_us: int, safety_margin: float
) -> CalibrationReport:
    return CalibrationReport(
        counter=counter,
        peak_rate=rate,
        check_period_us=check_period_us,
        monitor_latency_us=latency_us,
        safety_margin=safety_margin,
        recommended_threshold=recommend_threshold(
            rate, check_period_us, latency_us, safety_margin
        ),
    )
