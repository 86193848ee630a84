"""Shared domain types and the staggering arithmetic every other module builds on.

Staggering is the head replica's progress count minus the trail's, as a signed
number. The monitor keeps it at or above a configured threshold by stopping the
trail whenever the observed staggering falls below the threshold and waking it
once the margin is restored. decide is that rule, and TRAIL_STATE_AFTER,
beside it, is the one table of what each action leaves the trail in. Everything
here is pure data and pure functions.
"""

import enum
from collections.abc import Callable, Sequence
from typing import NamedTuple


class DiversityLossPolicy(enum.Enum):
    """What to do when the trail catches up with the head (staggering < 0)."""

    RECORD_AND_CONTINUE = "record-and-continue"
    ABORT_RUN = "abort-run"


class TrailState(enum.Enum):
    """The monitor's view of the trail replica."""

    RUNNING = "running"
    SUSPENDED = "suspended"


class Action(enum.Enum):
    """What the monitor did (or observed) at one check."""

    NONE = "NONE"
    SUSPEND = "SUSPEND"
    RESUME = "RESUME"
    HEAD_DONE = "HEAD_DONE"
    TRAIL_DONE = "TRAIL_DONE"
    DIVERSITY_LOSS = "DIVERSITY_LOSS"


class Role(enum.Enum):
    HEAD = "head"
    TRAIL = "trail"


# The longest check period a run takes: half the int64 nanosecond range, so
# that a period's wait ends on a monotonic deadline the clock can still count.
MAX_CHECK_PERIOD_US = 2**62 // 1000
# The most outputs a run takes: a match reads the head's outputs into the
# caller's buffers in one process_vm_readv, one iovec per buffer (IOV_MAX).
MAX_OUTPUTS = 1024


class MonitorConfig(NamedTuple):
    """Parameters of one protected run.

    threshold_instructions is the minimum staggering the monitor enforces,
    in progress units of the counter backing the run (retired instructions
    for the hardware counter). It has no default: it is platform dependent
    and must be supplied by the caller or taken from a calibration report.
    Durations are integer microseconds.
    """

    threshold_instructions: int
    check_period_us: int = 1000
    diversity_loss_policy: DiversityLossPolicy = DiversityLossPolicy.RECORD_AND_CONTINUE
    run_timeout_us: int | None = None
    head_core: int | None = None
    trail_core: int | None = None
    monitor_core: int | None = None


def validate_config(config: MonitorConfig) -> list[str]:
    """Return every violated MonitorConfig invariant; empty list means ok."""
    errors: list[str] = []
    if config.threshold_instructions <= 0:
        errors.append("threshold must be positive")
    if config.check_period_us <= 0:
        errors.append("check period must be positive")
    elif config.check_period_us > MAX_CHECK_PERIOD_US:
        errors.append(f"check period must be at most {MAX_CHECK_PERIOD_US} us")
    if config.run_timeout_us is not None and config.run_timeout_us <= 0:
        errors.append("run timeout must be positive when set")
    cores = {
        "head_core": config.head_core,
        "trail_core": config.trail_core,
        "monitor_core": config.monitor_core,
    }
    named = [(name, core) for name, core in cores.items() if core is not None]
    errors += [f"{name} must be non-negative, got {core}" for name, core in named if core < 0]
    for i, (name_a, core_a) in enumerate(named):
        for name_b, core_b in named[i + 1 :]:
            if core_a == core_b:
                errors.append(f"cores must be distinct ({name_a}={core_a}, {name_b}={core_b})")
    return errors


# A wrapped computation reads only the given input views, writes only the
# given output views, and is deterministic in them. Returning False signals
# an application-detected failure (maps to a nonzero exit).
WrappedComputation = Callable[[Sequence[memoryview], Sequence[memoryview]], object]


class PayloadSpec(NamedTuple):
    """The unit of replication: ordered input buffers and output sizes.

    Inputs are read-only flat byte views of the caller's buffers (anything
    that exposes the buffer protocol), not copies: the caller must leave them
    unchanged until the replicas have been spawned, and a bytearray stays
    locked against resizing until release(). Only a non-contiguous buffer is
    copied once, in C order. input_sizes[i] must equal the byte length of
    inputs[i]. Lists may be empty and sizes may be zero; there are at most
    MAX_OUTPUTS outputs.
    """

    inputs: tuple[memoryview, ...]
    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]

    @classmethod
    def of(cls, inputs, input_sizes, output_sizes) -> "PayloadSpec":
        return cls(
            inputs=tuple(_byte_view(b) for b in inputs),
            input_sizes=tuple(int(n) for n in input_sizes),
            output_sizes=tuple(int(n) for n in output_sizes),
        )

    def release(self) -> None:
        """Drop the input views, and with them every export of the caller's buffers."""
        for view in self.inputs:
            view.release()

    def __enter__(self) -> "PayloadSpec":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def validate(self) -> list[str]:
        errors: list[str] = []
        if len(self.inputs) != len(self.input_sizes):
            errors.append(
                f"{len(self.inputs)} input buffers but {len(self.input_sizes)} declared sizes"
            )
        else:
            for i, (buf, size) in enumerate(zip(self.inputs, self.input_sizes)):
                if buf.nbytes != size:
                    errors.append(f"input {i} is {buf.nbytes} bytes, declared {size}")
        for i, size in enumerate(self.input_sizes):
            if size < 0:
                errors.append(f"input size {i} is negative")
        for i, size in enumerate(self.output_sizes):
            if size < 0:
                errors.append(f"output size {i} is negative")
        if len(self.output_sizes) > MAX_OUTPUTS:
            errors.append(f"{len(self.output_sizes)} outputs, at most {MAX_OUTPUTS} allowed")
        return errors

    @property
    def total_input_bytes(self) -> int:
        return sum(self.input_sizes)

    @property
    def total_output_bytes(self) -> int:
        return sum(self.output_sizes)


def _byte_view(buf) -> memoryview:
    view = memoryview(buf)
    try:
        flat = view.cast("B")
    except TypeError:
        flat = memoryview(view.tobytes())  # casts need a C-contiguous buffer
    return flat.toreadonly()


class StaggeringSample(NamedTuple):
    """One monitor observation: both counts and the action taken on them.

    Only what was observed is stored; the signed staggering is derived.
    """

    interval_index: int
    timestamp_ns: int
    head_count: int
    trail_count: int
    action: Action

    @property
    def staggering(self) -> int:
        return self.head_count - self.trail_count


class VerdictKind(enum.Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    REPLICA_FAILURE = "replica-failure"
    DIVERSITY_LOSS = "diversity-loss"
    TIMEOUT = "timeout"


# Causes a replica failure verdict can carry. "counter-failure" covers counter
# reads failing mid-run, which aborts the loop with replica-failure semantics.
FAILURE_CAUSES = ("crash", "nonzero-exit", "counter-failure")


class _VerdictFields(NamedTuple):
    kind: VerdictKind
    mismatches: tuple[tuple[int, int], ...] = ()
    failed_role: Role | None = None
    failure_cause: str | None = None
    loss_sample: StaggeringSample | None = None
    # The failed replica's traceback, or what went wrong reaching it.
    detail: str = ""


class Verdict(_VerdictFields):
    """Outcome of a protected run (tagged union over VerdictKind).

    Every construction is checked, _replace's included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind is VerdictKind.MISMATCH and not self.mismatches:
            raise ValueError("a mismatch verdict must carry at least one differing location")
        if self.kind is VerdictKind.REPLICA_FAILURE:
            if self.failed_role is None or self.failure_cause not in FAILURE_CAUSES:
                raise ValueError("replica-failure verdict needs a role and a known cause")
        if self.kind is VerdictKind.DIVERSITY_LOSS:
            if self.loss_sample is None or self.loss_sample.staggering >= 0:
                raise ValueError("diversity-loss verdict must carry the negative-staggering sample")
        return self

    @classmethod
    def _make(cls, iterable) -> "Verdict":
        return cls(*iterable)

    @classmethod
    def match(cls) -> "Verdict":
        return cls(kind=VerdictKind.MATCH)

    @classmethod
    def mismatch(cls, locations) -> "Verdict":
        return cls(kind=VerdictKind.MISMATCH, mismatches=tuple((int(i), int(o)) for i, o in locations))

    @classmethod
    def replica_failure(cls, role: Role, cause: str, detail: str = "") -> "Verdict":
        return cls(
            kind=VerdictKind.REPLICA_FAILURE, failed_role=role, failure_cause=cause, detail=detail
        )

    @classmethod
    def diversity_loss(cls, sample: StaggeringSample) -> "Verdict":
        return cls(kind=VerdictKind.DIVERSITY_LOSS, loss_sample=sample)

    @classmethod
    def timeout(cls) -> "Verdict":
        return cls(kind=VerdictKind.TIMEOUT)

    def describe(self) -> str:
        if self.kind is VerdictKind.MATCH:
            return "MATCH"
        if self.kind is VerdictKind.MISMATCH:
            locs = ", ".join(f"output {i} first differs at byte {o}" for i, o in self.mismatches)
            return f"MISMATCH ({locs})"
        if self.kind is VerdictKind.REPLICA_FAILURE:
            return f"REPLICA_FAILURE ({self.failed_role.value}: {self.failure_cause})"
        if self.kind is VerdictKind.DIVERSITY_LOSS:
            return (
                f"DIVERSITY_LOSS (staggering {self.loss_sample.staggering} "
                f"at interval {self.loss_sample.interval_index})"
            )
        return "TIMEOUT"


def staggering(head_count: int, trail_count: int) -> int:
    """Signed staggering: head count minus trail count.

    Negative values are meaningful (the trail caught up) and are never clamped.
    Python integers are unbounded, so the 64-bit overflow case of the contract
    cannot occur here; counts must simply be non-negative.
    """
    if head_count < 0 or trail_count < 0:
        raise ValueError("progress counts are non-negative")
    return head_count - trail_count


def decide(staggering_value: int, threshold: int, trail_state: TrailState) -> Action:
    """The enforcement rule applied at every check.

    Below the threshold (strictly) with the trail running: stop it. At or
    above the threshold with the trail stopped: wake it. Anything else needs
    no action; in particular staggering exactly at the threshold is safe.
    """
    if staggering_value < threshold:
        if trail_state is TrailState.RUNNING:
            return Action.SUSPEND
    elif trail_state is TrailState.SUSPENDED:
        return Action.RESUME
    return Action.NONE


# The trail's state after each action; any other action leaves it as it was.
# The loop acts on this table, and Trace.validate checks recorded runs against it.
TRAIL_STATE_AFTER = {
    Action.SUSPEND: TrailState.SUSPENDED,
    Action.DIVERSITY_LOSS: TrailState.SUSPENDED,
    Action.RESUME: TrailState.RUNNING,
    Action.HEAD_DONE: TrailState.RUNNING,
}
