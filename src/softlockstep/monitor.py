"""The enforcement loop and the one-call protected-run entry point.

The loop is generic over a progress source, which is its own clock and
names its own backend; that is what makes the rest of the system testable:
the same code polls real processes through perf counters (a ReplicaSession,
which waits through a RealClock), replays a script tick by tick (a
ScriptedSource, which also records the staggering at every tick boundary;
sim.simulate is this loop on one as it is), or re-executes a recorded trace
(formats.replay, on a formats.ReplaySource). It is the one place the
staggering rule is applied. Every check reads the head count first, then
the trail, then how each exited, computes the signed staggering, and
picks exactly one action, which becomes one trace sample. The loop then
stops or wakes the trail at one site, as core.TRAIL_STATE_AFTER (kept
with decide) says that action leaves it; Trace.validate checks a recorded
run against the same table. The loop ends in a verdict: MATCH once both
replicas finished, otherwise TIMEOUT, DIVERSITY_LOSS or REPLICA_FAILURE.

protect() owns the whole lifecycle of a real run: spawn both replicas on
private data copies (the head runs while the trail is forked), enforce
staggering until both finish on the session, the run's clock, which wakes
on a replica's report or exit as well as at each check period, then after
a loop MATCH stop the head, write an injected bit flip into its target's
outputs, and compare them byte for byte; on a match kill the trail and,
while it dies, read the stopped head's outputs straight into the caller's
buffers, and always release the session, which kills and reaps what is
left. Output comparison and fault
injection (integrity) and the process layer (replication, and through it
linuxperf, ctypes, mmap and signal) are imported by the first protected run,
so the simulator, run_scripted and replay never load them. Trace files,
like the other file formats, are read and written by the formats module.
"""

import os
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .core import (
    TRAIL_STATE_AFTER,
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    PayloadSpec,
    Role,
    StaggeringSample,
    TrailState,
    Verdict,
    VerdictKind,
    WrappedComputation,
    decide,
    staggering,
    validate_config,
)
from .progress import TICK_NS, CounterUnavailable, ProgressSource, ScriptedSource

if TYPE_CHECKING:
    from . import integrity
    from .replication import ReplicaSession
    from .sim import Schedule

class Trace:
    """A recorded run: the sample sequence plus how it was produced.

    backend is the loop's source's: "process/<counter kind>" for a protected
    run, "scripted" or "replay"; a trace read from a file says "file".
    """

    def __init__(self, samples: list[StaggeringSample] | None = None, backend: str = "unknown",
                 threshold: int | None = None, check_period_us: int | None = None):
        self.samples = [] if samples is None else samples
        self.backend = backend
        self.threshold = threshold
        self.check_period_us = check_period_us

    def validate(self) -> list[str]:
        """Structural legality: trail states as core.TRAIL_STATE_AFTER has them, single ends, ordering."""
        problems = []
        trail_state = TrailState.SUSPENDED  # the trail starts suspended by construction
        done = set()
        last_interval = last_ts = -1
        for s in self.samples:
            if s.interval_index <= last_interval:
                problems.append(f"interval {s.interval_index} not increasing")
            if s.timestamp_ns < last_ts:
                problems.append(f"timestamp {s.timestamp_ns} decreases")
            last_interval, last_ts = s.interval_index, s.timestamp_ns
            after = TRAIL_STATE_AFTER.get(s.action, trail_state)
            # A suspend or resume must change the trail's state; a loss or the
            # head's end may find it already where the table leaves it.
            if s.action in (Action.SUSPEND, Action.RESUME) and after is trail_state:
                problems.append(f"interval {s.interval_index}: "
                                f"{s.action.value.lower()} while {trail_state.value}")
            elif s.action in (Action.HEAD_DONE, Action.TRAIL_DONE):
                if s.action in done:
                    problems.append(f"{s.action.value} emitted twice")
                done.add(s.action)
            trail_state = after
        return problems


def enforcement_loop(source: ProgressSource, config: MonitorConfig) -> tuple[Verdict, Trace]:
    """Poll, decide, act, record: one iteration per check period.

    The source waits out each period and stamps each check, and the trace
    records its backend. The trail must be suspended on entry. Each check
    emits exactly one sample; once the head terminates the trail runs
    unthrottled until it terminates too.

    Returns MATCH once both replicas finished (there are no outputs here to
    compare), TIMEOUT at the deadline, DIVERSITY_LOSS at the first loss under
    ABORT_RUN, and REPLICA_FAILURE when a replica failed or could not be read.
    """
    threshold = config.threshold_instructions
    trace = Trace(
        backend=source.backend,
        threshold=threshold,
        check_period_us=config.check_period_us,
    )
    trail_state = TrailState.SUSPENDED
    head_done = False
    trail_done = False

    started_ns = source.now_ns()
    deadline_ns = None
    if config.run_timeout_us is not None:
        deadline_ns = started_ns + config.run_timeout_us * 1000

    while True:
        source.wait_one_period()
        now_ns = source.now_ns()
        if deadline_ns is not None and now_ns >= deadline_ns:
            return Verdict.timeout(), trace
        # Each failed read or poll is blamed on the replica it was about.
        polled = Role.HEAD
        try:
            head_count = source.read_count(Role.HEAD)
            polled = Role.TRAIL
            trail_count = source.read_count(Role.TRAIL)
            polled = Role.HEAD
            head_exit = source.exit_status(Role.HEAD)
            polled = Role.TRAIL
            trail_exit = source.exit_status(Role.TRAIL)
        except (CounterUnavailable, OSError):
            return Verdict.replica_failure(polled, "counter-failure"), trace
        # A failed head is blamed before a failed trail.
        if head_exit is not None and not head_exit.success:
            return Verdict.replica_failure(Role.HEAD, head_exit.failure_cause), trace
        if trail_exit is not None and not trail_exit.success:
            return Verdict.replica_failure(Role.TRAIL, trail_exit.failure_cause), trace

        stag = staggering(head_count, trail_count)
        if head_exit is not None and not head_done:
            action = Action.HEAD_DONE
            head_done = True
        elif not head_done and stag < 0:
            # Checked before TRAIL_DONE: a trail that overtook the head and
            # then finished is still a loss.
            action = Action.DIVERSITY_LOSS
        elif trail_exit is not None and not trail_done:
            action = Action.TRAIL_DONE
            trail_done = True
        elif head_done or trail_done:
            action = Action.NONE
        else:
            action = decide(stag, threshold, trail_state)
        after = TRAIL_STATE_AFTER.get(action, trail_state)
        if after is not trail_state:
            if after is TrailState.SUSPENDED:
                source.suspend(Role.TRAIL)
            else:
                source.resume(Role.TRAIL)
            trail_state = after

        sample = StaggeringSample(len(trace.samples), now_ns, head_count, trail_count, action)
        trace.samples.append(sample)

        if action is Action.DIVERSITY_LOSS and config.diversity_loss_policy is DiversityLossPolicy.ABORT_RUN:
            return Verdict.diversity_loss(sample), trace
        if head_done and trail_done:
            return Verdict.match(), trace


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


def spawn_replicas(computation: WrappedComputation, payload: PayloadSpec, config: MonitorConfig,
                   counter: str) -> "ReplicaSession":
    """replication.spawn_replicas, imported on the first call: protect() spawns through this name."""
    from .replication import spawn_replicas

    return spawn_replicas(computation, payload, config, counter=counter)


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

    On Match the stopped head's outputs are read straight into the caller's
    buffers: exactly the bytes that were compared. On any other verdict, a
    head that dies before that read included, the caller's buffers are left
    untouched. At most core.MAX_OUTPUTS outputs are taken. The replica
    session is always torn down, whatever the verdict or exception path.

    Neither replica inherits the pages lying wholly inside the caller's input
    and output buffers, so the computation must reach its data through its
    views alone: one that writes a caller's buffer directly (through a
    closure, say) crashes its replica, a REPLICA_FAILURE with cause "crash".

    Replicas keep stdout and stderr, get no stdin (it reads /dev/null), and
    inherit no other descriptor of the caller's: a file or socket the caller
    holds open is closed in both, so neither replica can move an offset the
    other or the caller reads from.

    Both replicas are forked from the calling process, and only the calling
    thread exists in a child: a lock another thread held at the fork stays
    held there, so a computation that takes it deadlocks. Call protect()
    from a process whose other threads hold no lock the computation needs.
    A fork another thread makes while the replicas are spawned does not
    inherit the caller's buffers' whole pages either, and on return those
    pages are inherited by forks again, even if the caller had marked them
    MADV_DONTFORK.
    """
    from . import integrity
    from .replication import _pin, kept_from_forks

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
        if inject is not None and inject.kind is integrity.FaultKind.BIT_FLIP:
            # Refused before any fork: _compare writes the flip after the loop.
            integrity.check_bit(payload.output_sizes, inject.output_index, inject.byte_offset,
                                inject.bit_index)
        # Each replica reads its input copy and writes its output mapping:
        # it needs none of the caller's pages, and the copy-back into pages
        # no fork shared takes no copy-on-write fault.
        with kept_from_forks([*payload.inputs, *outputs]):
            session = spawn_replicas(computation, payload, config, counter=counter)
        saved_affinity: set[int] | None = None
        try:
            if config.monitor_core is not None:
                saved_affinity = os.sched_getaffinity(0)
                _pin(0, "the monitor", config.monitor_core)
            source = session if inject is None else integrity.inject_fault(session, inject)
            verdict, trace = enforcement_loop(source, config)
            if verdict.kind is VerdictKind.MATCH:
                verdict = _compare(session, outputs, inject)
            elif verdict.kind is VerdictKind.REPLICA_FAILURE:
                verdict = verdict._replace(detail=session.failure_detail(verdict.failed_role))
            return verdict, trace
        finally:
            session.release()
            if saved_affinity is not None:
                os.sched_setaffinity(0, saved_affinity)


def _compare(session: "ReplicaSession", outputs: Sequence,
             inject: "integrity.FaultSpec | None") -> Verdict:
    """Stop the head, compare both replicas' outputs, and on a match deliver the head's.

    An injected bit flip is written into its target's outputs first. The
    trail is killed before the head's outputs are read into the caller's
    buffers, so its teardown runs beside that read. The head stays stopped
    until release() kills it: the caller gets exactly the bytes that were
    compared.
    """
    from . import integrity
    from .replication import ReplicaLost

    try:
        session.freeze(Role.HEAD)
        head, trail = session.outputs(Role.HEAD), session.outputs(Role.TRAIL)
        if inject is not None and inject.kind is integrity.FaultKind.BIT_FLIP:
            (head if inject.target is Role.HEAD else trail).flip_bit(
                inject.output_index, inject.byte_offset, inject.bit_index)
        verdict = integrity.compare_outputs(head, trail, session.payload.output_sizes)
        if verdict.kind is VerdictKind.MATCH:
            session.kill_replica(Role.TRAIL, wait=False)
            head.read_all_into(outputs)
        return verdict
    except ReplicaLost as exc:
        # Died after its done report, before its outputs were read.
        return Verdict.replica_failure(
            exc.role, exc.cause, session.failure_detail(exc.role) or str(exc)
        )


def run_scripted(schedule: "Schedule", config: MonitorConfig) -> tuple[Verdict, Trace]:
    """Drive the real enforcement loop from a scripted schedule (no processes).

    One tick is progress.TICK_NS of scripted time, and the checks come every
    period_ticks ticks, which the trace records as its period in place of
    config.check_period_us. The loop's verdict is the run's: there are no
    outputs to compare, so MATCH records clean completion.
    """
    source = ScriptedSource(schedule)
    problems = validate_config(config)
    if problems:
        raise ValueError("; ".join(problems))
    config = config._replace(check_period_us=schedule.period_ticks * TICK_NS // 1000)
    return enforcement_loop(source, config)
