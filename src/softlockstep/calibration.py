"""Host calibration in counter units: progress over one check gap and past a stop.

The staggering threshold must cover what either replica can run between two
reads of its count plus how far it runs past a stop request, times a safety
margin: ceil((gap_progress_max + stop_overshoot_max) * margin), with no rate
in it. calibrate() reads gap_progress_max off the enforcement loop itself,
run on a busy head and trail at the requested period, and stop_overshoot_max
off the head's count once the kernel reports a stop. It does not cover a
longer gap in a protected run than it saw, nor the monitor's own work between
a trail read and its suspend request: its recommendation is measured, not
proven. calibrate_scripted() reads both off a schedule. A report written
before counter units validates by recommend_threshold, the paper's bound
r * (P + L) * margin. The arithmetic is exact over integers, to the last digit.
"""

from __future__ import annotations

import math
import os
import time
from typing import NamedTuple

from .core import MonitorConfig, Role, VerdictKind, validate_config
from .monitor import enforcement_loop
from .progress import TICK_NS, SpawnFailure

# Each key's parser, in file order; a None field is not written. A report has
# the two counts or, from before them, a rate and a latency, and may lack gap_max_us.
_REPORT_FIELDS = {
    "counter": str, "peak_rate": float, "check_period_us": int, "gap_max_us": int,
    "gap_progress_max": int, "monitor_latency_us": int, "stop_overshoot_max": int,
    "safety_margin": float, "recommended_threshold": int,
}
_RATE_FIELDS = ("peak_rate", "monitor_latency_us")
_COUNT_FIELDS = ("gap_progress_max", "stop_overshoot_max")
# A measured run lasts at least 10 check periods and 100 ms; the stop
# overshoot's worst case is taken over 30 probes.
_MIN_RUN_PERIODS = 10
_MIN_RUN_US = 100_000
_PROBES = 30


def recommend_threshold(peak_rate: float, check_period_us: int, monitor_latency_us: int,
                        safety_margin: float) -> int:
    """ceil(peak_rate * (period + latency) * margin), computed exactly: the paper's bound.

    peak_rate is in progress units per second, the durations in integer
    microseconds. The product is taken over the floats' exact integer ratios,
    so the result is the true ceiling, not the ceiling of an approximation.
    """
    _refuse(_range_problems({"peak_rate": peak_rate, "monitor_latency_us": monitor_latency_us},
                            check_period_us, safety_margin))
    rate_num, rate_den = peak_rate.as_integer_ratio()
    margin_num, margin_den = safety_margin.as_integer_ratio()
    numerator = rate_num * (check_period_us + monitor_latency_us) * margin_num
    return -(-numerator // (rate_den * 1_000_000 * margin_den))


def _count_threshold(gap_progress_max: int, stop_overshoot_max: int, check_period_us: int,
                     safety_margin: float) -> int:
    """ceil((gap_progress_max + stop_overshoot_max) * margin), exact over the margin's ratio."""
    _refuse(_range_problems(dict(zip(_COUNT_FIELDS, (gap_progress_max, stop_overshoot_max))),
                            check_period_us, safety_margin))
    margin_num, margin_den = safety_margin.as_integer_ratio()
    return -(-(gap_progress_max + stop_overshoot_max) * margin_num // margin_den)


def _range_problems(terms: dict, check_period_us: int, safety_margin: float) -> list[str]:
    """Each field out of range, by name. terms: a rate or count, then a term past a stop."""
    (progress, value), (past_stop, overshoot) = terms.items()
    problems = []
    if not -math.inf < value < math.inf:  # an int too large for a float is finite
        problems.append(f"{progress} must be finite")
    elif value <= 0:
        problems.append(f"{progress} must be positive: no progress was seen")
    if check_period_us <= 0:
        problems.append("check_period_us must be positive")
    if overshoot < 0:
        problems.append(f"{past_stop} must be non-negative")
    if not math.isfinite(safety_margin):
        problems.append("safety_margin must be finite")
    elif safety_margin < 1:
        problems.append("safety_margin must be >= 1")
    return problems


def _refuse(problems: list[str]) -> None:
    if problems:
        raise ValueError("; ".join(problems))


class CalibrationReport(NamedTuple):
    """Everything needed to re-derive (and therefore audit) a threshold.

    The threshold is ceil((gap_progress_max + stop_overshoot_max) * margin);
    check_period_us and gap_max_us, the longest check gap calibration saw,
    are recorded facts. A report written before counter units has peak_rate
    and monitor_latency_us in place of the two counts, and its threshold
    covers the longer of the period and gap_max_us (0: not recorded).
    """

    counter: str
    peak_rate: float | None
    check_period_us: int
    monitor_latency_us: int | None
    safety_margin: float
    recommended_threshold: int
    gap_max_us: int = 0
    gap_progress_max: int | None = None
    stop_overshoot_max: int | None = None

    def validate(self) -> list[str]:
        rated = self.peak_rate is not None
        terms = {key: getattr(self, key) for key in (_RATE_FIELDS if rated else _COUNT_FIELDS)}
        problems = _range_problems(terms, self.check_period_us, self.safety_margin)
        if self.gap_max_us < 0:
            problems.append("gap_max_us must be non-negative")
        if not problems:
            gap = max(self.check_period_us, self.gap_max_us)
            expected = (recommend_threshold(self.peak_rate, gap, self.monitor_latency_us,
                                            self.safety_margin) if rated
                        else _count_threshold(*terms.values(), self.check_period_us,
                                              self.safety_margin))
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
        if getattr(report, key) is not None:
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
    unused = _COUNT_FIELDS if "peak_rate" in values else _RATE_FIELDS
    keys = [key for key in _REPORT_FIELDS if key not in unused]
    missing = [k for k in keys if k not in values and k != "gap_max_us"]
    if missing:
        raise ValueError(f"calibration file is missing {', '.join(missing)}")
    fields = dict.fromkeys(_RATE_FIELDS)  # None in a counter-unit report
    for key in [key for key in keys if key in values]:
        lineno, value = values[key]
        try:
            fields[key] = _REPORT_FIELDS[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    report = CalibrationReport(**fields)
    _refuse(report.validate())
    return report


def suspend_latency_over_probes(session, probes: int) -> int:
    """The most the head's count ran past a stop request over probes stops, in counter units.

    Each probe lets the head run about 200 us, reads its count, and freezes
    it: the session sends SIGSTOP and returns once the kernel reports the
    stop, after which the count cannot change. The count then read, less the
    one before, is what the head ran from its count read to its stop.
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

    With d the largest delta of either replica, a replica runs at most
    d * period_ticks between two checks, which come exactly on time, and
    d * suspend_latency_ticks past a stop. A tick lasts TICK_NS.
    """
    _refuse(schedule.validate())
    delta = max((*schedule.head_deltas, *schedule.trail_deltas), default=0)
    period_us = schedule.period_ticks * TICK_NS // 1000
    return _report("scripted", period_us, period_us, delta * schedule.period_ticks,
                   delta * schedule.suspend_latency_ticks, safety_margin)


def calibrate(
    check_period_us: int = 1000,
    safety_margin: float = 2.0,
    duration_us: int = 300_000,
    counter: str = "auto",
) -> CalibrationReport:
    """Measure this host and recommend a threshold for the given period.

    A busy head and trail run under the enforcement loop at the given period
    for duration_us, with threshold 1: gap_progress_max is the largest count
    delta of either replica between two consecutive checks, and gap_max_us,
    recorded only, the longest gap. The head's overshoot past a stop is then
    probed _PROBES times on the same session. The report carries the resolved counter kind
    so thresholds are never reused across metrics. Every argument is checked
    before any replica is spawned. A loop that ends before its deadline lost
    a replica, and raises SpawnFailure.
    """
    _count_threshold(1, 0, check_period_us, safety_margin)  # refuses a bad period or margin
    if duration_us < max(_MIN_RUN_US, _MIN_RUN_PERIODS * check_period_us):
        raise ValueError(
            f"duration_us must cover at least {_MIN_RUN_PERIODS} check periods and "
            f"{_MIN_RUN_US} us (100 ms), got {duration_us}"
        )
    config = MonitorConfig(threshold_instructions=1, check_period_us=check_period_us,
                           run_timeout_us=duration_us)
    _refuse(validate_config(config))  # a period the clock cannot wait, as protect() refuses
    # Local imports: replication pulls in the ctypes, fork and mmap machinery
    # that threshold arithmetic, report files and scripted calibration never need.
    from .replication import spawn_replicas
    from .workloads import spin_workload

    workload = spin_workload(10**15)  # effectively runs until killed
    session = spawn_replicas(workload.computation, workload.payload, config, counter=counter)
    try:
        verdict, trace = enforcement_loop(session, config)
        if verdict.kind is not VerdictKind.TIMEOUT:
            raise SpawnFailure(f"a spin replica ended the calibration run: {verdict.describe()}")
        overshoot = suspend_latency_over_probes(session, _PROBES)
    finally:
        session.release()
    pairs = list(zip(trace.samples, trace.samples[1:]))
    progress = max((max(b.head_count - a.head_count, b.trail_count - a.trail_count)
                    for a, b in pairs), default=0)
    gap_max_us = -(-max((b.timestamp_ns - a.timestamp_ns for a, b in pairs), default=0) // 1000)
    return _report(session.counter_kind, check_period_us, gap_max_us, progress, overshoot,
                   safety_margin)


def _report(counter: str, period_us: int, gap_max_us: int, progress: int, overshoot: int,
            margin: float) -> CalibrationReport:
    return CalibrationReport(counter, None, period_us, None, margin,
                             _count_threshold(progress, overshoot, period_us, margin),
                             gap_max_us, progress, overshoot)
