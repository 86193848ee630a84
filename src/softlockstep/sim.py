"""Discrete-time simulator of the staggering protocol.

Time advances in ticks. During tick i a running replica retires its scheduled
per-tick delta; every period_ticks the monitor samples both counts and applies
the enforcement rule; a suspend decision takes effect suspend_latency_ticks
later. simulate() is monitor.enforcement_loop itself, run on a plain
progress.ScriptedSource built from the schedule: this module holds no copy
of the rule, nor of the source. Because that source also records the
staggering at every tick boundary (not just at checks), simulate captures
the true minimum staggering, which is exactly the hazard the threshold
guards against: the trail catching up between checks.

The model is small enough to check exhaustively. exhaustive_check covers
every per-tick rate assignment over a small alphabet and either certifies
that no schedule drives the staggering negative or returns the first one, in
head-major order, that does. It walks the monitor states reachable after each
tick, grouped by the tick the trail is frozen from and keeping for each state
the least prefix that reaches it as one integer, rather than the schedules:
an independent statement of the rule, which the tests hold to simulate(), and
so to the production loop, schedule by schedule. The walk counts its own work
and gives up past MAX_WALK_WORK. Schedule CSV files are read and written by
the formats module.
"""

import bisect
import math
from typing import NamedTuple

from .core import Action, DiversityLossPolicy, MonitorConfig, StaggeringSample
from .monitor import enforcement_loop
from .progress import ScriptedSource

# Bounds on exhaustive_check. Each state the walk expands costs the length of
# its step table, or the table's rate pairs if it builds it; past MAX_WALK_WORK
# the walk raises (2-vCPU Xeon: at most 0.55 s of CPU accepted, one letter
# over MAX_WALK_WORK ticks; the slowest refusal found takes 0.25 s).
# Refused up front: more ticks than that, as the walk loops over ticks whatever
# its states, and a space |alphabet|^(2*ticks) of MAX_SPACE_DIGITS digits or
# more, whose exact counts str() could not print (it stops at 4,300 digits).
MAX_WALK_WORK = 500_000
MAX_SPACE_DIGITS = 4_000
# Rates and thresholds must keep counts within int64, the counters' width.
INT64_MAX = 2**63 - 1


class EmptyTrace(ValueError):
    pass


class SearchSpaceTooLarge(ValueError):
    pass


class Schedule(NamedTuple):
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


class SimTrace:
    """Simulation result: the sampled trace plus every tick-boundary staggering.

    instants holds (tick, staggering) for every completed tick while the head
    was still alive; samples holds what a live monitor would have recorded at
    check instants. Whether diversity was lost is read off the samples.
    """

    def __init__(self, samples: list[StaggeringSample] | None = None,
                 instants: list[tuple[int, int]] | None = None):
        self.samples = [] if samples is None else samples
        self.instants = [] if instants is None else instants

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
    """Run the enforcement loop over a schedule, tick by tick.

    This is monitor.enforcement_loop itself, on a ScriptedSource as it is,
    which records the staggering at every tick boundary while the head lives.
    The trail starts suspended. Checks happen at the end of every
    period_ticks-th tick: the monitor reads both counts, emits one sample,
    and applies the decision; a suspend freezes the trail starting
    suspend_latency_ticks + 1 ticks later. Once the head terminates the trail
    is released for good. The run ends when both replicas have terminated
    (or immediately on diversity loss under ABORT_RUN). Unlike run_scripted,
    any threshold is taken, zero and negative ones too.
    """
    source = ScriptedSource(schedule)
    config = MonitorConfig(threshold_instructions=threshold,
                           diversity_loss_policy=diversity_loss_policy)
    _, trace = enforcement_loop(source, config)
    return SimTrace(trace.samples, source.instants)


def _steps(alphabet, running, head_weight):
    """(head_rate - trail_rate, digits) for each distinct step of one tick.

    digits is head digit * head_weight + trail digit: what the step adds to a
    prefix kept in units of its tick's trail digit (see _first_counterexample).
    """
    if not running:  # a frozen trail's rate does not count: its lowest letter stands for all
        return [(rate, digit * head_weight) for digit, rate in enumerate(alphabet)]
    # Largest first, so that the walk stops at the first step that goes
    # negative; each step keeps its least digit pair, head digit first.
    least = {}
    for head_digit, head_rate in enumerate(alphabet):
        for trail_digit, trail_rate in enumerate(alphabet):
            least.setdefault(head_rate - trail_rate, head_digit * head_weight + trail_digit)
    return sorted(least.items(), reverse=True)


def _first_counterexample(alphabet, ticks, period_ticks, latency, threshold):
    """Head-major index of the first schedule that goes negative, or None.

    Walks the monitor states reachable after each tick: the staggering and
    the tick the trail is frozen from (it runs at tick u while u < that
    tick): 0 once it is frozen for the next tick, ticks + 1 if it runs to
    the end, else a pending suspend's check tick + latency + 1. The states
    are grouped by freeze tick, {freeze tick: {staggering: prefix}}, so a
    group's next freeze ticks are worked out once per tick. Each state keeps
    the least prefix reaching it as one integer: the index
    head * |alphabet|^ticks + trail of the prefix padded with the lowest
    rate, in units of the tick's trail digit |alphabet|^(ticks - tick), so
    that a step adds its digits unscaled and the next tick multiplies by
    |alphabet|. Prefixes in one state go negative under the same extensions,
    and a common extension keeps their head-major order. A pair of rates
    moves a state only by its step head_rate - trail_rate, so each state
    follows each step of _steps once, with the least digit pair giving it.
    A state goes negative soonest under the lowest head rate and the least
    trail rate above its staggering plus that; padded with the lowest rate,
    that is a candidate. Every candidate of a tick is taken before any state
    of the tick is expanded, and a state whose prefix does not precede the
    least candidate is dropped: its extensions only come later. The rules
    are the enforcement loop's, as simulate() runs it tick by tick,
    restricted to replicas without lengths.
    """
    size, lowest = len(alphabet), alphabet[0]
    # Only a staggering below spread can go negative in one tick.
    spread = alphabet[-1] - lowest
    head_weight = size**ticks
    # A frozen and a running trail's steps, built when first needed: a wide
    # alphabet has |alphabet|^2 pairs, and a one-tick check expands no state.
    tables = [None, None]
    work = 0
    groups = {0: {0: 0}}
    # Past every schedule, |alphabet|^(2*ticks), while no candidate is known;
    # in tick 0's units, |alphabet|^ticks.
    first = head_weight
    for tick in range(1, ticks + 1):
        # The states hold prefixes in the last tick's units; first and the
        # candidates are in this tick's.
        first *= size
        for frozen_from, group in groups.items():
            if tick < frozen_from and spread:
                for staggering, prefix in group.items():
                    if staggering < spread and prefix * size < first:
                        first = min(first, prefix * size + bisect.bisect_right(
                            alphabet, staggering + lowest))
        if tick == ticks:
            break
        check, suspend = tick % period_ticks == 0, tick + latency + 1
        reached = {}
        for frozen_from, group in groups.items():
            running = tick < frozen_from
            # The freeze tick after a step to below the threshold and to at
            # least it: a check suspends, keeping an earlier tick, or resumes.
            held = suspend if check and suspend < frozen_from else frozen_from
            below = held if held > tick + 1 else 0
            above = ticks + 1 if check else below
            steps = tables[running]
            lower = upper = None
            for staggering, prefix in group.items():
                prefix *= size
                if prefix >= first:
                    continue
                work += len(steps) if steps is not None else size * size if running else size
                if work > MAX_WALK_WORK:
                    raise SearchSpaceTooLarge(
                        f"the walk over {size}^(2*{ticks}) schedules exceeds the bound of "
                        f"{MAX_WALK_WORK} state steps by tick {tick}")
                if steps is None:
                    steps = tables[running] = _steps(alphabet, running, head_weight)
                if lower is None:  # a group is made by its first expansion
                    lower = reached.setdefault(below, {})
                    upper = reached.setdefault(above, {})
                for step, digits in steps:
                    now = staggering + step
                    if now < 0:
                        break
                    # A prefix at or past first is dropped here, not next tick.
                    target = lower if now < threshold else upper
                    if target.get(now, first) > (least := prefix + digits):
                        target[now] = least
        groups = reached
    return None if first == head_weight * head_weight else first


class CheckResult(NamedTuple):
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
    """Check the safety claim over every head/trail rate assignment.

    Covers |alphabet|^(2*ticks) schedules in head-major itertools.product
    order and returns the first one whose staggering goes negative at any
    tick boundary, or a safe verdict if none exists. schedules_checked is
    the 1-based index of that counterexample, or the whole space when safe.
    The schedules are not stepped one by one: the walk advances the monitor
    states reachable after each tick, grouped by the tick the trail is frozen
    from, each with the least prefix reaching it as one integer index, along
    each distinct step head_rate - trail_rate once rather than each rate
    pair, which finds exactly the counterexample a schedule-by-schedule
    enumeration would find first. Each tick takes all of its candidates
    before it expands a state, and expands only the states that can still
    precede the least of them. SearchSpaceTooLarge is raised for more than
    MAX_WALK_WORK ticks, a space of MAX_SPACE_DIGITS digits or more, or a
    walk whose work passes MAX_WALK_WORK.
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
    size = len(alphabet)
    if ticks > MAX_WALK_WORK:
        raise SearchSpaceTooLarge(f"{ticks} ticks exceeds the bound of {MAX_WALK_WORK} ticks")
    if 2 * ticks * math.log10(size) >= MAX_SPACE_DIGITS:
        raise SearchSpaceTooLarge(
            f"the count of {size}^(2*{ticks}) schedules exceeds the bound of "
            f"{MAX_SPACE_DIGITS} digits")

    first = _first_counterexample(alphabet, ticks, period_ticks, suspend_latency_ticks, threshold)
    if first is None:
        return CheckResult(safe=True, schedules_checked=size ** (2 * ticks))
    # Each index read as base-|alphabet| digits, most significant first.
    head, trail = ([alphabet[index // size**k % size] for k in reversed(range(ticks))]
                   for index in divmod(first, size**ticks))
    return CheckResult(
        safe=False,
        counterexample=Schedule.of(head, trail, period_ticks=period_ticks,
                                   suspend_latency_ticks=suspend_latency_ticks),
        schedules_checked=first + 1,
    )
