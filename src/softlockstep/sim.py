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
the trails of a block of whole heads as a prefix tree in int64 numpy arrays,
advancing each tick prefix once; simulate() stays the tick-by-tick reference
the tests hold that kernel to.
"""

from __future__ import annotations

import itertools
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

# Schedules exhaustive_check evaluates together, as whole heads and at least
# one: its memory whatever the space, 128 KiB per int64 array at full width.
_BLOCK = 16_384
# Bound on exhaustive_check's work: units of _WORK_UNIT schedules times ticks.
# Every space of up to 10M schedules fits; the largest, five letters over five
# ticks, counts 2,385 units x 5 ticks and takes about 0.2 s of one 2-vCPU VM.
_WORK_UNIT = 4096
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
    check instants. Whether diversity was lost is read off the samples.
    """

    samples: list[StaggeringSample] = field(default_factory=list)
    instants: list[tuple[int, int]] = field(default_factory=list)

    @property
    def diversity_lost(self) -> bool:
        return any(s.action is Action.DIVERSITY_LOSS for s in self.samples)


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
            StaggeringSample(interval, source.now_ns(), head_count, trail_count, action)
        )
        interval += 1
        if action is Action.DIVERSITY_LOSS and diversity_loss_policy is DiversityLossPolicy.ABORT_RUN:
            return trace
        if head_done_emitted and trail_done_emitted:
            return trace


def _min_staggering_tree(heads, letters, period_ticks, latency_ticks, threshold):
    """Minimum tick-boundary staggering of every trail under each of `heads`.

    heads holds one row of per-tick rates per head and letters the alphabet,
    both int64; row h of the result holds the minimum of each of the
    |letters|^ticks trails under head h, in itertools.product order. The
    state after tick t depends only on the head and the trail's first t
    rates, so tick t advances each (t-1)-tick prefix once and broadcasts the
    alphabet over it: the arrays grow from |letters|^(t-1) to |letters|^t
    columns. Prefixes are shared, but every schedule keeps its own exact
    minimum: none is skipped or pruned, and no two distinct prefixes are
    merged into one row. The rules are simulate()'s restricted to replicas
    without lengths, and the minimum starts from the tick-0 staggering of 0.
    A trail is frozen from the tick in frozen_from: 0 at the start, check
    tick + latency + 1 after a suspend, and _RUNNING, later than any tick,
    once resumed; so the freeze tick is also the monitor's view. It changes
    only at checks, so it keeps one entry per prefix as of the last check.
    """
    rows = len(heads)
    staggering = minimum = np.zeros((rows, 1), dtype=np.int64)
    frozen_from = np.zeros((rows, 1, 1, 1), dtype=np.int64)
    for tick, head_rates in enumerate(heads.T[:, :, None, None, None], start=1):
        # Columns grouped by their prefix at the last check, whose freeze they share.
        prefixes = frozen_from.shape[1]
        staggering = (staggering.reshape(rows, prefixes, -1, 1)
                      + (head_rates - (tick < frozen_from) * letters)).reshape(rows, -1)
        minimum = np.minimum(minimum[:, :, None], staggering.reshape(rows, -1, len(letters)))
        minimum = minimum.reshape(rows, -1)
        if tick % period_ticks == 0:
            # A suspend keeps an earlier freeze tick; a resume runs the trail.
            frozen_from = np.where(
                staggering.reshape(rows, prefixes, -1, 1) < threshold,
                np.minimum(frozen_from, tick + latency_ticks + 1),
                _RUNNING,
            ).reshape(rows, -1, 1, 1)
    return minimum


def _search_space(size: int, ticks: int) -> int | None:
    """size^(2*ticks), or None once its work units times ticks exceed MAX_KERNEL_WORK.

    Multiplies up to the bound rather than building the full power, which
    for a large tick count takes seconds to minutes on its own.
    """
    if ticks > MAX_KERNEL_WORK:
        return None
    space = 1
    for _ in range(2 * ticks):
        space *= size
        if -(-space // _WORK_UNIT) * ticks > MAX_KERNEL_WORK:
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
    Whole heads are evaluated together, about _BLOCK schedules and at least
    one head at a time, and the search stops at the first block holding a
    counterexample. Each head's trails share their tick prefixes, but every
    schedule keeps its own exact minimum: none is skipped or pruned, and no
    two distinct prefixes are merged into one row.
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
            f"bound of {MAX_KERNEL_WORK} units of {_WORK_UNIT} schedules times ticks"
        )

    # A freeze past the last tick never bites, however late: this keeps
    # tick + latency + 1 inside int64.
    latency = min(suspend_latency_ticks, ticks)
    heads = np.array(list(itertools.product(alphabet, repeat=ticks)), dtype=np.int64)
    letters = np.array(alphabet, dtype=np.int64)
    trails = len(alphabet) ** ticks
    per_block = max(1, _BLOCK // trails)
    for first in range(0, len(heads), per_block):
        minimum = _min_staggering_tree(
            heads[first:first + per_block], letters, period_ticks, latency, threshold
        )
        unsafe = np.flatnonzero(minimum < 0)
        if unsafe.size:
            index = first * trails + int(unsafe[0])
            # Head then trail digits of the index, most significant first.
            rates, rest = [], index
            for _ in range(2 * ticks):
                rest, digit = divmod(rest, len(alphabet))
                rates.append(alphabet[digit])
            rates.reverse()
            return CheckResult(
                safe=False,
                counterexample=Schedule.of(
                    rates[:ticks], rates[ticks:],
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


def read_schedule_csv(source, period_ticks=1, suspend_latency_ticks=0) -> Schedule:
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
    )
