"""The enforcement loop and the one-call protected-run entry point.

The loop is generic over a progress source and a clock, which is what makes
the rest of the system testable: the same code polls real processes through
perf counters (a ReplicaSession with a RealClock), replays a script tick by
tick (a ScriptedSource, its own clock), or re-executes a recorded trace (a
ReplaySource, its own clock). Every check reads the head count first, then
the trail, computes the signed staggering, and applies exactly one action,
which becomes one trace sample.

protect() owns the whole lifecycle of a real run: spawn both replicas on
private data copies, enforce staggering until both finish, compare outputs
byte for byte, always release the session, and only then, on a match, copy
the head's outputs into the caller's buffers.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

from . import integrity
from .core import (
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    PayloadSpec,
    Role,
    StaggeringSample,
    TrailState,
    Verdict,
    VerdictKind,
    decide,
    staggering,
    validate_config,
)
from .progress import (
    CounterUnavailable,
    LoopClock,
    ProgressSource,
    RealClock,
    ReplaySource,
    ScriptedSource,
)
from .replication import (
    ReplicaLost,
    ReplicaSession,
    WrappedComputation,
    huge_page_mapping,
    kept_from_forks,
    spawn_replicas,
)
from .sim import Schedule

TRACE_HEADER = ("interval", "timestamp_ns", "head_instr", "trail_instr", "staggering", "action")


class LoopOutcome(Enum):
    COMPLETED = "completed"
    DIVERSITY_ABORT = "diversity-abort"
    TIMEOUT = "timeout"
    REPLICA_TROUBLE = "replica-trouble"


@dataclass
class Trace:
    """A recorded run: the sample sequence plus how it was produced."""

    samples: list[StaggeringSample] = field(default_factory=list)
    backend: str = "unknown"
    counter: str = ""
    threshold: int | None = None
    check_period_us: int | None = None

    def validate(self) -> list[str]:
        """Structural legality: alternation, single terminations, ordering."""
        problems = []
        suspended = True  # the trail starts suspended by construction
        head_done = False
        trail_done = False
        last_interval = -1
        last_ts = -1
        for s in self.samples:
            if s.interval_index <= last_interval:
                problems.append(f"interval {s.interval_index} not increasing")
            if s.timestamp_ns < last_ts:
                problems.append(f"timestamp {s.timestamp_ns} decreases")
            last_interval, last_ts = s.interval_index, s.timestamp_ns
            if s.action is Action.SUSPEND:
                if suspended:
                    problems.append(f"interval {s.interval_index}: suspend while suspended")
                suspended = True
            elif s.action is Action.DIVERSITY_LOSS:
                # Loss checks leave the trail suspended whether or not it was.
                suspended = True
            elif s.action is Action.RESUME:
                if not suspended:
                    problems.append(f"interval {s.interval_index}: resume while running")
                suspended = False
            elif s.action is Action.HEAD_DONE:
                if head_done:
                    problems.append("HEAD_DONE emitted twice")
                head_done = True
                suspended = False
            elif s.action is Action.TRAIL_DONE:
                if trail_done:
                    problems.append("TRAIL_DONE emitted twice")
                trail_done = True
        return problems


@dataclass
class LoopResult:
    outcome: LoopOutcome
    trace: Trace
    loss_sample: StaggeringSample | None = None
    failed_role: Role | None = None
    failure_cause: str | None = None


def enforcement_loop(
    source: ProgressSource,
    clock: LoopClock,
    config: MonitorConfig,
    on_check: Callable[[int, int, int], None] | None = None,
    backend: str = "unknown",
) -> LoopResult:
    """Poll, decide, act, record: one iteration per check period.

    The trail must be suspended on entry. Each check emits exactly one
    sample; once the head terminates the trail runs unthrottled until it
    terminates too. on_check, if given, runs after the counts are read and
    before the decision (fault injection hooks in).
    """
    threshold = config.threshold_instructions
    trace = Trace(
        backend=backend,
        threshold=threshold,
        check_period_us=config.check_period_us,
    )
    trail_state = TrailState.SUSPENDED
    head_done = False
    trail_done = False
    loss_sample: StaggeringSample | None = None
    interval = 0

    started_ns = clock.now_ns()
    deadline_ns = None
    if config.run_timeout_us is not None:
        deadline_ns = started_ns + config.run_timeout_us * 1000

    while True:
        clock.wait_one_period()
        now_ns = clock.now_ns()
        if deadline_ns is not None and now_ns >= deadline_ns:
            return LoopResult(outcome=LoopOutcome.TIMEOUT, trace=trace, loss_sample=loss_sample)
        # Each failed read or poll is blamed on the replica it was about.
        polled = Role.HEAD
        try:
            head_count = source.read_count(Role.HEAD)
            polled = Role.TRAIL
            trail_count = source.read_count(Role.TRAIL)
            exits = {}
            for polled in Role:
                exits[polled] = source.is_terminated(polled)
        except (CounterUnavailable, OSError):
            return LoopResult(
                outcome=LoopOutcome.REPLICA_TROUBLE,
                trace=trace,
                failed_role=polled,
                failure_cause="counter-failure",
            )
        if on_check is not None:
            on_check(now_ns, head_count, trail_count)
        for role, (terminated, status) in exits.items():
            if terminated and not status.success:
                return LoopResult(
                    outcome=LoopOutcome.REPLICA_TROUBLE,
                    trace=trace,
                    failed_role=role,
                    failure_cause=status.failure_cause,
                )
        head_term = exits[Role.HEAD][0]
        trail_term = exits[Role.TRAIL][0]

        stag = staggering(head_count, trail_count)
        if head_term and not head_done:
            action = Action.HEAD_DONE
            head_done = True
            if trail_state is TrailState.SUSPENDED:
                source.resume(Role.TRAIL)
                trail_state = TrailState.RUNNING
        elif not head_done and stag < 0:
            # Checked before TRAIL_DONE: a trail that overtook the head and
            # then finished is still a loss.
            action = Action.DIVERSITY_LOSS
            if trail_state is TrailState.RUNNING:
                source.suspend(Role.TRAIL)
                trail_state = TrailState.SUSPENDED
        elif trail_term and not trail_done:
            action = Action.TRAIL_DONE
            trail_done = True
        elif head_done or trail_done:
            action = Action.NONE
        else:
            action = decide(stag, threshold, trail_state)
            if action is Action.SUSPEND:
                source.suspend(Role.TRAIL)
                trail_state = TrailState.SUSPENDED
            elif action is Action.RESUME:
                source.resume(Role.TRAIL)
                trail_state = TrailState.RUNNING

        sample = StaggeringSample.at(interval, now_ns, head_count, trail_count, action)
        trace.samples.append(sample)
        interval += 1

        if action is Action.DIVERSITY_LOSS:
            if loss_sample is None:
                loss_sample = sample
            if config.diversity_loss_policy is DiversityLossPolicy.ABORT_RUN:
                return LoopResult(
                    outcome=LoopOutcome.DIVERSITY_ABORT,
                    trace=trace,
                    loss_sample=loss_sample,
                )
        if head_done and trail_done:
            return LoopResult(outcome=LoopOutcome.COMPLETED, trace=trace, loss_sample=loss_sample)


def _validate_caller_outputs(outputs: Sequence, output_sizes: Sequence[int]) -> None:
    if len(outputs) != len(output_sizes):
        raise ValueError(
            f"{len(outputs)} output buffers supplied for {len(output_sizes)} declared outputs"
        )
    for i, (buf, size) in enumerate(zip(outputs, output_sizes)):
        view = memoryview(buf)
        if view.readonly:
            raise ValueError(f"output buffer {i} is read-only")
        if not view.c_contiguous:
            raise ValueError(f"output buffer {i} is not C-contiguous")
        if view.nbytes != size:
            raise ValueError(f"output buffer {i} holds {view.nbytes} bytes, declared {size}")


def protect(
    computation: WrappedComputation,
    inputs: Sequence,
    input_sizes: Sequence[int],
    outputs: Sequence,
    output_sizes: Sequence[int],
    config: MonitorConfig,
    counter: str = "auto",
    inject: "integrity.FaultSpec | None" = None,
) -> tuple[Verdict, Trace]:
    """Run the computation twice under staggering enforcement and compare.

    On Match the head's outputs are copied into the caller's output buffers;
    on any other verdict the caller's buffers are left untouched. The replica
    session is always torn down, whatever the verdict or exception path.

    Neither replica inherits the pages lying wholly inside the caller's input
    and output buffers, so the computation must reach its data through its
    views alone: one that writes a caller's buffer directly (through a
    closure, say) crashes its replica, a REPLICA_FAILURE with cause "crash".

    Both replicas are forked from the calling process, and only the calling
    thread exists in a child: a lock another thread held at the fork stays
    held there, so a computation that takes it deadlocks. Call protect()
    from a process whose other threads hold no lock the computation needs.
    A fork another thread makes while the replicas are spawned does not
    inherit the caller's buffers' whole pages either, and on return those
    pages are inherited by forks again, even if the caller had marked them
    MADV_DONTFORK.
    """
    problems = validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))
    # The payload views the caller's inputs; releasing them on every path
    # leaves no export of a caller's buffer behind.
    with PayloadSpec.of(inputs, input_sizes, output_sizes) as payload:
        problems = payload.validate()
        if problems:
            raise ValueError("; ".join(problems))
        _validate_caller_outputs(outputs, output_sizes)
        # Each replica reads its input copy and writes its output mapping:
        # it needs none of the caller's pages, and the copy-back into pages
        # no fork shared takes no copy-on-write fault.
        with kept_from_forks([*payload.inputs, *outputs]):
            session = spawn_replicas(computation, payload, config, counter=counter)
        saved_affinity: set[int] | None = None
        head_copy = None
        try:
            if config.monitor_core is not None:
                saved_affinity = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {config.monitor_core})
            on_check = None
            if inject is not None:
                on_check = integrity.inject_fault(session, inject)
            result = enforcement_loop(
                source=session,
                clock=RealClock(config.check_period_us),
                config=config,
                on_check=on_check,
                backend=f"process/{session.counter_kind}",
            )
            result.trace.counter = session.counter_kind
            if result.outcome is LoopOutcome.COMPLETED:
                # Made after both forks, so no replica ever maps it.
                head_copy = huge_page_mapping(payload.total_output_bytes)
            verdict = _verdict_for(result, session, head_copy)
            # Copy back only once both replicas are reaped: a partly covered
            # first or last page of a caller's buffer is still shared
            # copy-on-write with a live replica.
            session.release()
            if verdict.kind is VerdictKind.MATCH:
                _copy_back(head_copy, outputs, output_sizes)
            return verdict, result.trace
        finally:
            session.release()
            if saved_affinity is not None:
                os.sched_setaffinity(0, saved_affinity)
            if head_copy is not None:
                head_copy.close()


def _verdict_for(result: LoopResult, session: ReplicaSession | None, head_copy=None) -> Verdict:
    """The verdict of a loop outcome, for protect() and run_scripted() alike.

    A completed run compares the session's outputs into head_copy; a
    scripted run has no session and no outputs, so completing is a match.
    """
    if result.outcome is LoopOutcome.TIMEOUT:
        return Verdict.timeout()
    if result.outcome is LoopOutcome.DIVERSITY_ABORT:
        return Verdict.diversity_loss(result.loss_sample)
    if result.outcome is LoopOutcome.REPLICA_TROUBLE:
        role = result.failed_role
        detail = session.failure_detail(role) if session is not None else ""
        return Verdict.replica_failure(role, result.failure_cause, detail)
    if session is None:
        return Verdict.match()
    try:
        return integrity.compare_outputs(
            session.outputs(Role.HEAD),
            session.outputs(Role.TRAIL),
            session.payload.output_sizes,
            head_copy,
        )
    except ReplicaLost as exc:
        # Died after its done report, before its outputs were read.
        return Verdict.replica_failure(
            exc.role, exc.cause, session.failure_detail(exc.role) or str(exc)
        )


def _copy_back(head_copy, outputs: Sequence, output_sizes: Sequence[int]) -> None:
    offset = 0
    with memoryview(head_copy) as copy:
        for buf, size in zip(outputs, output_sizes):
            memoryview(buf).cast("B")[:] = copy[offset : offset + size]
            offset += size


def run_scripted(schedule: Schedule, config: MonitorConfig) -> tuple[Verdict, Trace]:
    """Drive the real enforcement loop from a scripted schedule (no processes).

    One tick is progress.TICK_NS of scripted time. A completed scripted run
    reports Match: there are no outputs to compare, the verdict just records
    clean completion.
    """
    errors = schedule.validate()
    if errors:
        raise ValueError("; ".join(errors))
    problems = validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))
    source = ScriptedSource(schedule.replica_specs(), schedule.period_ticks)
    result = enforcement_loop(
        source=source,
        clock=source,
        config=config,
        backend="scripted",
    )
    return _verdict_for(result, session=None), result.trace


def replay(trace: Trace, config: MonitorConfig) -> LoopResult:
    """Re-run the loop against a recorded trace's counts and timestamps.

    The recorded run's timeout is not replayed. The replay times out where
    the recording ends instead, so a run recorded without both replicas
    finishing (timed out, or aborted and replayed under another policy)
    ends as TIMEOUT. An empty trace raises ValueError.
    """
    source = ReplaySource.from_samples(trace.samples)
    return enforcement_loop(
        source=source,
        clock=source,
        config=replace(config, run_timeout_us=source.duration_us),
        backend="replay",
    )


def write_trace(trace: Trace, sink) -> None:
    """Write the fixed-format CSV; sink is a path or a text file object."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", newline="") as f:
            write_trace(trace, f)
        return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for s in trace.samples:
        writer.writerow(
            [s.interval_index, s.timestamp_ns, s.head_count, s.trail_count, s.staggering, s.action.value]
        )


def read_trace(source) -> Trace:
    """Parse a trace CSV; rejects bad headers and inconsistent staggering."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="") as f:
            return read_trace(f)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trace file") from None
    if tuple(header) != TRACE_HEADER:
        raise ValueError(f"expected header {','.join(TRACE_HEADER)}, got {','.join(header)}")
    samples = []
    for row in reader:
        if not row:
            continue
        if len(row) != 6:
            raise ValueError(f"row {len(samples) + 2}: expected 6 fields, got {len(row)}")
        samples.append(
            StaggeringSample(
                interval_index=int(row[0]),
                timestamp_ns=int(row[1]),
                head_count=int(row[2]),
                trail_count=int(row[3]),
                staggering=int(row[4]),
                action=Action(row[5]),
            )
        )
    return Trace(samples=samples, backend="file")
