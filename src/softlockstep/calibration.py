"""Host calibration: peak progress rate, longest check gap, suspension latency.

The staggering threshold must cover the progress either replica can make
over one check gap plus the suspension latency, at its fastest rate, times a
safety margin. calibrate() reads rate and gap off the enforcement loop
itself, run on a busy head and trail whose session is its clock at the
requested period, and then probes the latency on that session: how far the
head's count runs past a stop request, read once the kernel reports the
stop. Its gap is a sample, not a bound, so its recommendation is measured,
not proven. calibrate_scripted() reads all three off a schedule.
The arithmetic is exact over integer microseconds, so every report can be
re-derived from its own fields to the last digit.
"""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

from .core import MonitorConfig, Role, VerdictKind
from .monitor import enforcement_loop
from .progress import TICK_NS, SpawnFailure

# Each key's parser, in file order. A report written before gap_max_us was
# recorded lacks that key and derives from its nominal period.
_REPORT_FIELDS = {
    "counter": str,
    "peak_rate": float,
    "check_period_us": int,
    "gap_max_us": int,
    "monitor_latency_us": int,
    "safety_margin": float,
    "recommended_threshold": int,
}
# A measured run lasts at least 10 check periods and 100 ms.
_MIN_RUN_PERIODS = 10
_MIN_RUN_US = 100_000


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
    """Everything needed to re-derive (and therefore audit) a threshold.

    The threshold covers the longer of the nominal check period and
    gap_max_us, the longest check gap the calibration saw (0: not recorded).
    """

    counter: str
    peak_rate: float
    check_period_us: int
    monitor_latency_us: int
    safety_margin: float
    recommended_threshold: int
    gap_max_us: int = 0

    def validate(self) -> list[str]:
        fields = (self.peak_rate, self.check_period_us, self.monitor_latency_us, self.safety_margin)
        problems = _range_problems(*fields)
        if self.gap_max_us < 0:
            problems.append("gap_max_us must be non-negative")
        if not problems:
            expected = recommend_threshold(self.peak_rate, max(self.check_period_us, self.gap_max_us),
                                           self.monitor_latency_us, self.safety_margin)
            if expected != self.recommended_threshold:
                problems.append(
                    f"recommended_threshold {self.recommended_threshold} does not "
                    f"match its own fields (expected {expected})"
                )
        return problems


def write_report(report: CalibrationReport, sink) -> None:
    """Serialize as stable key=value lines (a float's str round-trips exactly)."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w") as f:
            write_report(report, f)
        return
    for key in _REPORT_FIELDS:
        sink.write(f"{key}={getattr(report, key)}\n")


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
    missing = [k for k in _REPORT_FIELDS if k not in values and k != "gap_max_us"]
    if missing:
        raise ValueError(f"calibration file is missing {', '.join(missing)}")
    fields = {}
    for key, parse in _REPORT_FIELDS.items():
        if key not in values:
            continue
        lineno, value = values[key]
        try:
            fields[key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    report = CalibrationReport(**fields)
    problems = report.validate()
    if problems:
        raise ValueError("; ".join(problems))
    return report


def suspend_latency_over_probes(session, probes: int) -> int:
    """The most the head's count ran past a stop request over probes stops: r * L in counter units.

    Each probe lets the head run about 200 us, reads its count, and freezes
    it: the session sends SIGSTOP and returns once the kernel reports the
    stop, after which the count cannot change. The count then read, less the
    one before, is what the head ran from its count read to its stop. The
    maximum over probes keeps the estimate conservative, the safe direction
    for the threshold formula.
    """
    if probes < 1:
        raise ValueError("need at least one probe")
    worst = 0
    for _ in range(probes):
        session.resume(Role.HEAD)
        time.sleep(200e-6)  # running again, not just woken
        before = session.read_count(Role.HEAD)
        session.freeze(Role.HEAD)
        worst = max(worst, session.read_count(Role.HEAD) - before)
    return worst


def calibrate_scripted(schedule, safety_margin: float = 2.0) -> CalibrationReport:
    """Calibrate against a scripted schedule: exact results, no privileges.

    One tick lasts TICK_NS, so the largest delta d of either replica is a
    rate of d per tick, the r of the bound r * (P + L); P is the schedule's
    period_ticks and L its suspend_latency_ticks, both in us, and the
    longest gap is the period, as scripted checks come exactly on time.
    """
    errors = schedule.validate()
    if errors:
        raise ValueError("; ".join(errors))
    delta = max(max(schedule.head_deltas, default=0), max(schedule.trail_deltas, default=0))
    period_us = schedule.period_ticks * TICK_NS // 1000
    return _report("scripted", delta * (1e9 / TICK_NS), period_us, period_us,
                   schedule.suspend_latency_ticks * TICK_NS // 1000, safety_margin)


def calibrate(
    check_period_us: int = 1000,
    safety_margin: float = 2.0,
    duration_us: int = 300_000,
    probes: int = 30,
    counter: str = "auto",
) -> CalibrationReport:
    """Measure this host and recommend a threshold for the given period.

    A busy head and trail run under the enforcement loop at the given period
    for duration_us, with threshold 1. Over each gap between two consecutive
    checks, the larger count delta of the two replicas gives a rate: r is
    the largest, and gap_max_us the longest gap. The head's overshoot past a
    stop is then probed on the same session, and turned into whole
    microseconds at r, rounded up. The report carries the resolved counter
    kind so thresholds are never reused across metrics. Every argument is
    checked before any replica is spawned. A loop that ends before its
    deadline lost a replica, and raises SpawnFailure.
    """
    recommend_threshold(1.0, check_period_us, 0, safety_margin)  # refuses a bad period or margin
    if duration_us < max(_MIN_RUN_US, _MIN_RUN_PERIODS * check_period_us):
        raise ValueError(
            f"duration_us must cover at least {_MIN_RUN_PERIODS} check periods and "
            f"{_MIN_RUN_US} us (100 ms), got {duration_us}"
        )
    if probes < 30:
        raise ValueError("need at least 30 probes for a usable worst case")
    # Local imports: replication pulls in the ctypes, fork and mmap machinery
    # that threshold arithmetic, report files and scripted calibration never need.
    from .replication import spawn_replicas
    from .workloads import spin_workload

    workload = spin_workload(10**15)  # effectively runs until killed
    config = MonitorConfig(threshold_instructions=1, check_period_us=check_period_us,
                           run_timeout_us=duration_us)
    session = spawn_replicas(workload.computation, workload.payload, config, counter=counter)
    try:
        verdict, trace = enforcement_loop(session, config)
        if verdict.kind is not VerdictKind.TIMEOUT:
            raise SpawnFailure(f"a spin replica ended the calibration run: {verdict.describe()}")
        overshoot = suspend_latency_over_probes(session, probes)
    finally:
        session.release()
    samples = trace.samples
    gaps = [(b.timestamp_ns - a.timestamp_ns,
             max(b.head_count - a.head_count, b.trail_count - a.trail_count))
            for a, b in zip(samples, samples[1:])]
    rate = max((delta * 1e9 / gap_ns for gap_ns, delta in gaps), default=0.0)
    gap_max_us = -(-max((gap_ns for gap_ns, _ in gaps), default=0) // 1000)
    # L = overshoot / r, over the rate's exact ratio; a rate of 0 is refused by _report.
    rate_num, rate_den = rate.as_integer_ratio()
    latency_us = -(-overshoot * 1_000_000 * rate_den // rate_num) if rate_num else 0
    return _report(session.counter_kind, rate, check_period_us, gap_max_us, latency_us,
                   safety_margin)


def _report(counter: str, rate: float, check_period_us: int, gap_max_us: int, latency_us: int,
            safety_margin: float) -> CalibrationReport:
    return CalibrationReport(
        counter=counter,
        peak_rate=rate,
        check_period_us=check_period_us,
        monitor_latency_us=latency_us,
        safety_margin=safety_margin,
        recommended_threshold=recommend_threshold(
            rate, max(check_period_us, gap_max_us), latency_us, safety_margin
        ),
        gap_max_us=gap_max_us,
    )
