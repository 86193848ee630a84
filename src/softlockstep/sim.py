"""Discrete-time simulator of the staggering protocol.

Time advances in ticks. During tick i a running replica retires its scheduled
per-tick delta; every period_ticks the monitor samples both counts and applies
the enforcement rule; a suspend decision takes effect suspend_latency_ticks
later. The replicas are a progress.ScriptedSource built from the schedule,
the model run_scripted plays too; this module writes only the monitor's
side. Because the
model also tracks staggering at every tick boundary (not just at checks), it
captures the true minimum staggering, which is exactly the hazard the
threshold guards against: the trail catching up between checks.

The model is small enough to brute-force. exhaustive_check enumerates every
per-tick rate assignment over a small alphabet and either certifies that no
schedule drives the staggering negative or returns one that does. It walks
the schedules in blocks of _BLOCK, each advanced tick by tick as int64 numpy
arrays with one row per schedule; simulate() stays the tick-by-tick reference
the tests hold that kernel to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Action,
    DiversityLossPolicy,
    Role,
    StaggeringSample,
    TrailState,
    decide,
)
from .progress import ScriptedSource

# Schedules exhaustive_check evaluates together: its memory whatever the space.
_BLOCK = 4096
# Bound on exhaustive_check's work: blocks of _BLOCK schedules times ticks,
# each block advanced once per tick. Every space of up to 10M schedules fits;
# the largest, five letters over five ticks, takes 2,385 blocks x 5 ticks.
MAX_KERNEL_WORK = 12_000
# The kernel counts in int64, so rates and thresholds must keep counts below this.
INT64_MAX = int(np.iinfo(np.int64).max)
# The freeze tick of a running trail: later than any tick.
_RUNNING = INT64_MAX


class EmptyTrace(ValueError):
    pass


class SearchSpaceTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Deterministic per-tick instruction-rate streams plus monitor timing.

    head_length / trail_length are the total instructions each replica needs
    to finish; None means the replica only terminates when its delta stream
    is exhausted. A replica whose stream is exhausted counts as successfully
    terminated even if a declared length was never reached.
    """

    head_deltas: tuple[int, ...]
    trail_deltas: tuple[int, ...]
    period_ticks: int = 1
    suspend_latency_ticks: int = 0
    head_length: int | None = None
    trail_length: int | None = None

    @classmethod
    def of(cls, head_deltas, trail_deltas, period_ticks=1, suspend_latency_ticks=0,
           head_length=None, trail_length=None) -> "Schedule":
        return cls(
            head_deltas=tuple(int(d) for d in head_deltas),
            trail_deltas=tuple(int(d) for d in trail_deltas),
            period_ticks=int(period_ticks),
            suspend_latency_ticks=int(suspend_latency_ticks),
            head_length=head_length,
            trail_length=trail_length,
        )

    @property
    def ticks(self) -> int:
        return max(len(self.head_deltas), len(self.trail_deltas))

    def validate(self) -> list[str]:
        errors = []
        if any(d < 0 for d in self.head_deltas) or any(d < 0 for d in self.trail_deltas):
            errors.append("deltas must be non-negative")
        if self.period_ticks < 1:
            errors.append("period_ticks must be >= 1")
        if self.suspend_latency_ticks < 0:
            errors.append("suspend_latency_ticks must be >= 0")
        if self.head_length is not None and self.head_length < 0:
            errors.append("head_length must be >= 0 when set")
        if self.trail_length is not None and self.trail_length < 0:
            errors.append("trail_length must be >= 0 when set")
        return errors


@dataclass
class SimTrace:
    """Simulation result: the sampled trace plus every tick-boundary staggering.

    instants holds (tick, staggering) for every completed tick while the head
    was still alive; samples holds what a live monitor would have recorded at
    check instants.
    """

    samples: list[StaggeringSample] = field(default_factory=list)
    instants: list[tuple[int, int]] = field(default_factory=list)
    diversity_lost: bool = False


def min_staggering(trace: SimTrace) -> int:
    """Minimum signed staggering over all modeled instants while the head lived."""
    if not trace.instants:
        raise EmptyTrace("trace has no modeled instants")
    return min(s for _, s in trace.instants)


def simulate(
    schedule: Schedule,
    threshold: int,
    diversity_loss_policy: DiversityLossPolicy = DiversityLossPolicy.RECORD_AND_CONTINUE,
) -> SimTrace:
    """Run the enforcement protocol over a schedule, tick by tick.

    The trail starts suspended. Checks happen at the end of every
    period_ticks-th tick: the monitor reads both counts, emits one sample,
    and applies the decision; a suspend freezes the trail starting
    suspend_latency_ticks + 1 ticks later. Once the head terminates the trail
    is released for good. The run ends when both replicas have terminated
    (or immediately on diversity loss under ABORT_RUN).
    """
    source = ScriptedSource(schedule)
    # Kept here rather than asked of the head: a head with no work is
    # terminated at tick 0 already, yet its first tick is a modeled instant.
    head_alive = True
    trail_view = TrailState.SUSPENDED
    head_done_emitted = False
    trail_done_emitted = False
    trace = SimTrace()
    interval = 0

    while True:
        # One monitor period: the replicas run period_ticks ticks, then a check.
        for _ in range(schedule.period_ticks):
            source.advance(1)
            if head_alive:
                stag = source.read_count(Role.HEAD) - source.read_count(Role.TRAIL)
                trace.instants.append((source.tick, stag))
                head_alive = source.exit_status(Role.HEAD) is None

        head_count, trail_count = source.read_count(Role.HEAD), source.read_count(Role.TRAIL)
        head_done = source.exit_status(Role.HEAD) is not None
        trail_done = source.exit_status(Role.TRAIL) is not None
        stag = head_count - trail_count

        if head_done and not head_done_emitted:
            action = Action.HEAD_DONE
            head_done_emitted = True
            if trail_view is TrailState.SUSPENDED:
                source.resume(Role.TRAIL)
                trail_view = TrailState.RUNNING
        elif not head_done_emitted and stag < 0:
            action = Action.DIVERSITY_LOSS
            trace.diversity_lost = True
            if trail_view is TrailState.RUNNING:
                source.suspend(Role.TRAIL)
                trail_view = TrailState.SUSPENDED
        elif trail_done and not trail_done_emitted:
            action = Action.TRAIL_DONE
            trail_done_emitted = True
        elif head_done_emitted or trail_done_emitted:
            action = Action.NONE
        else:
            action = decide(stag, threshold, trail_view)
            if action is Action.SUSPEND:
                source.suspend(Role.TRAIL)
                trail_view = TrailState.SUSPENDED
            elif action is Action.RESUME:
                source.resume(Role.TRAIL)
                trail_view = TrailState.RUNNING

        trace.samples.append(
            StaggeringSample.at(interval, source.now_ns(), head_count, trail_count, action)
        )
        interval += 1
        if action is Action.DIVERSITY_LOSS and diversity_loss_policy is DiversityLossPolicy.ABORT_RUN:
            return trace
        if head_done_emitted and trail_done_emitted:
            return trace


def _min_staggering_block(rates_by_tick, rows, period_ticks, latency_ticks, threshold):
    """Minimum tick-boundary staggering of `rows` schedules evaluated together.

    rates_by_tick yields, for ticks 1, 2, ..., the head's and the trail's
    per-tick deltas as two int64 arrays of shape (rows,); row i of every pair
    belongs to schedule i, and no row reads another. The rules are
    simulate()'s restricted to replicas without lengths, and the minimum
    starts from the tick-0 staggering of 0. Only the staggering is kept, not
    the two counts it is the difference of. A schedule's trail is frozen from
    the tick in its freeze array: 0 at the start, check tick + latency + 1
    after a suspend, and _RUNNING, later than any tick, once resumed; so the
    freeze tick is also the monitor's view. Ticks after the last yielded pair
    accrue nothing and cannot lower the minimum, so the kernel stops there,
    also in the middle of a check period.
    """
    staggering = np.zeros(rows, dtype=np.int64)
    minimum = np.zeros(rows, dtype=np.int64)
    frozen_from = np.zeros(rows, dtype=np.int64)
    for tick, (head_rates, trail_rates) in enumerate(rates_by_tick, start=1):
        staggering += head_rates
        np.subtract(staggering, trail_rates, out=staggering, where=tick < frozen_from)
        np.minimum(minimum, staggering, out=minimum)
        if tick % period_ticks == 0:
            # A suspend keeps an earlier freeze tick; a resume runs the trail.
            frozen_from = np.where(
                staggering < threshold,
                np.minimum(frozen_from, tick + latency_ticks + 1),
                _RUNNING,
            )
    return minimum


def _rates_by_tick(first, count, alphabet, ticks):
    """Per tick, the head and trail rates of schedules first .. first+count-1.

    Schedule k (0-based) is the k-th of the head-major itertools.product
    order: its head is k // |alphabet|^ticks and its trail the remainder,
    each written in base |alphabet|, most significant digit at tick 1.
    """
    rates = np.array(alphabet, dtype=np.int64)
    place = len(alphabet) ** ticks
    head, trail = np.divmod(np.arange(first, first + count, dtype=np.int64), place)
    for _ in range(ticks):
        place //= len(alphabet)
        head_digit, head = np.divmod(head, place)
        trail_digit, trail = np.divmod(trail, place)
        yield rates[head_digit], rates[trail_digit]


def _search_space(size: int, ticks: int) -> int | None:
    """size^(2*ticks), or None once its blocks times ticks exceed MAX_KERNEL_WORK.

    Multiplies up to the bound rather than building the full power, which
    for a large tick count takes seconds to minutes on its own.
    """
    if ticks > MAX_KERNEL_WORK:
        return None
    space = 1
    for _ in range(2 * ticks):
        space *= size
        if -(-space // _BLOCK) * ticks > MAX_KERNEL_WORK:
            return None
    return space


@dataclass(frozen=True)
class CheckResult:
    safe: bool
    counterexample: Schedule | None = None
    schedules_checked: int = 0


def exhaustive_check(
    rate_alphabet,
    ticks: int,
    period_ticks: int,
    suspend_latency_ticks: int,
    threshold: int,
) -> CheckResult:
    """Brute-force the safety claim over every head/trail rate assignment.

    Enumerates |alphabet|^(2*ticks) schedules in head-major itertools.product
    order and returns the first one whose staggering goes negative at any
    tick boundary, or a safe verdict if none exists. schedules_checked is
    the 1-based index of that counterexample, or the whole space when safe.
    Schedules are evaluated _BLOCK at a time, and the search stops at the
    first block holding a counterexample. The enumeration itself is the
    oracle: no schedule is skipped, merged or pruned.
    """
    alphabet = tuple(sorted({int(r) for r in rate_alphabet}))
    if not alphabet or any(r < 0 for r in alphabet):
        raise ValueError("rate alphabet must be non-empty and non-negative")
    if period_ticks < 1 or suspend_latency_ticks < 0 or ticks < 1:
        raise ValueError("period_ticks >= 1, suspend_latency_ticks >= 0, ticks >= 1 required")
    if alphabet[-1] * ticks > INT64_MAX:
        raise ValueError(
            f"rate {alphabet[-1]} over {ticks} ticks can count past the int64 "
            f"limit of {INT64_MAX}"
        )
    if abs(threshold) > INT64_MAX:
        raise ValueError(f"threshold {threshold} is past the int64 limit of {INT64_MAX}")
    space = _search_space(len(alphabet), ticks)
    if space is None:
        raise SearchSpaceTooLarge(
            f"{len(alphabet)}^(2*{ticks}) schedules over {ticks} ticks exceeds the "
            f"bound of {MAX_KERNEL_WORK} blocks of {_BLOCK} schedules times ticks"
        )

    # A freeze past the last tick never bites, however late: this keeps
    # tick + latency + 1 inside int64.
    latency = min(suspend_latency_ticks, ticks)
    for first in range(0, space, _BLOCK):
        count = min(_BLOCK, space - first)
        minimum = _min_staggering_block(
            _rates_by_tick(first, count, alphabet, ticks),
            count, period_ticks, latency, threshold,
        )
        unsafe = np.flatnonzero(minimum < 0)
        if unsafe.size:
            index = first + int(unsafe[0])
            rates = list(_rates_by_tick(index, 1, alphabet, ticks))
            return CheckResult(
                safe=False,
                counterexample=Schedule.of(
                    [int(head[0]) for head, _ in rates],
                    [int(trail[0]) for _, trail in rates],
                    period_ticks=period_ticks,
                    suspend_latency_ticks=suspend_latency_ticks,
                ),
                schedules_checked=index + 1,
            )
    return CheckResult(safe=True, schedules_checked=space)


def write_schedule_csv(schedule: Schedule, sink) -> None:
    """Serialize a schedule as `tick,head_delta,trail_delta` rows (1-based ticks)."""
    sink.write("tick,head_delta,trail_delta\n")
    for i in range(schedule.ticks):
        head = schedule.head_deltas[i] if i < len(schedule.head_deltas) else 0
        trail = schedule.trail_deltas[i] if i < len(schedule.trail_deltas) else 0
        sink.write(f"{i + 1},{head},{trail}\n")


def read_schedule_csv(source, period_ticks=1, suspend_latency_ticks=0,
                      head_length=None, trail_length=None) -> Schedule:
    """Parse `tick,head_delta,trail_delta` rows back into a Schedule."""
    lines = [line.strip() for line in source if line.strip()]
    if not lines or lines[0] != "tick,head_delta,trail_delta":
        raise ValueError("expected header 'tick,head_delta,trail_delta'")
    head_deltas = []
    trail_deltas = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        tick, head, trail = (int(p) for p in parts)
        if tick != len(head_deltas) + 1:
            raise ValueError(f"line {lineno}: ticks must be consecutive from 1")
        head_deltas.append(head)
        trail_deltas.append(trail)
    return Schedule.of(
        head_deltas, trail_deltas,
        period_ticks=period_ticks,
        suspend_latency_ticks=suspend_latency_ticks,
        head_length=head_length,
        trail_length=trail_length,
    )
