"""File formats, text parsers and trace replay: the surface of the CLI and offline tools.

Trace CSV and schedule CSV reading and writing, replay of a recorded trace
through the enforcement loop (with the ReplaySource that feeds it), and the
fault-spec and workload-id parsers. Neither protect() nor the simulator runs
any of it, so `import softlockstep` does not load this module: the package
root resolves these names on their first access, and the CLI imports them in
the subcommands that use them. The fault-spec parser loads integrity and the
workload-id parser loads workloads on their first call, and csv loads with the
first trace written or read, so replay loads none of them.
"""

import os
from typing import TYPE_CHECKING

from .core import Action, MonitorConfig, Role, StaggeringSample, Verdict, validate_config
from .monitor import Trace, enforcement_loop
from .progress import _SUCCESS, ExitStatus
from .sim import Schedule

if TYPE_CHECKING:
    from .integrity import FaultSpec
    from .workloads import Workload

TRACE_HEADER = ("interval", "timestamp_ns", "head_instr", "trail_instr", "staggering", "action")


def write_trace(trace: Trace, sink) -> None:
    """Write the fixed-format CSV; sink is a path or a text file object."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", newline="") as f:
            write_trace(trace, f)
        return
    import csv

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for s in trace.samples:
        writer.writerow(
            [s.interval_index, s.timestamp_ns, s.head_count, s.trail_count, s.staggering, s.action.value]
        )


def read_trace(source) -> Trace:
    """Parse a trace CSV; rejects bad headers, negative counts and a staggering they contradict."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="") as f:
            return read_trace(f)
    import csv

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
        where = f"row {reader.line_num}"  # the file line, blank lines counted
        if len(row) != 6:
            raise ValueError(f"{where}: expected 6 fields, got {len(row)}")
        try:
            interval, timestamp, head, trail, stag = (int(v) for v in row[:5])
            action = Action(row[5])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if head < 0 or trail < 0:
            raise ValueError(f"{where}: progress counts must be non-negative, "
                             f"got head {head}, trail {trail}")
        sample = StaggeringSample(interval, timestamp, head, trail, action)
        # Checked, then dropped: a sample derives its staggering from its counts.
        if stag != sample.staggering:
            raise ValueError(f"{where}: staggering {stag} != head {head} - trail {trail}")
        samples.append(sample)
    return Trace(samples=samples, backend="file")


class ReplaySource:
    """Feeds the samples of a previous run back to the loop, one per check.

    Suspend/resume are no-ops: the recorded counts already embody whatever
    suspensions the original monitor applied, so re-applying them would
    distort the replay. A replica terminates at the sample that recorded
    its HEAD_DONE or TRAIL_DONE, and never if none did. The source is its
    own clock: each period steps to the next sample. The recording lasts
    duration_us, the whole microseconds from its first sample to just past
    its latest; a step past the last sample moves the clock to that end.
    """

    backend = "replay"

    def __init__(self, samples: list[StaggeringSample]):
        if not samples:
            raise ValueError("nothing to replay: no recorded samples")
        self._samples = samples
        self._done = {Role.HEAD: len(samples), Role.TRAIL: len(samples)}
        for position, sample in enumerate(samples):
            if sample.action is Action.HEAD_DONE:
                self._done[Role.HEAD] = position
            elif sample.action is Action.TRAIL_DONE:
                self._done[Role.TRAIL] = position
        start_ns = samples[0].timestamp_ns
        self.duration_us = (max(s.timestamp_ns for s in samples) - start_ns) // 1000 + 1
        self.index = -1
        self.exhausted = False

    def wait_one_period(self) -> None:
        if self.index + 1 < len(self._samples):
            self.index += 1
        else:
            self.exhausted = True

    def now_ns(self) -> int:
        if self.exhausted:
            return self._samples[0].timestamp_ns + self.duration_us * 1000
        return self._samples[max(self.index, 0)].timestamp_ns

    def read_count(self, role: Role) -> int:
        sample = self._samples[max(self.index, 0)]
        return sample.head_count if role is Role.HEAD else sample.trail_count

    def suspend(self, role: Role) -> None:
        pass

    def resume(self, role: Role) -> None:
        pass

    def exit_status(self, role: Role) -> ExitStatus | None:
        return _SUCCESS if self.index >= self._done[role] else None


def replay(trace: Trace, config: MonitorConfig) -> tuple[Verdict, Trace]:
    """Re-run the loop against a recorded trace's counts and timestamps.

    The recorded run's timeout is not replayed. The replay times out where
    the recording ends instead, so a run recorded without both replicas
    finishing (timed out, or aborted and replayed under another policy)
    ends as TIMEOUT. A replayed run that completes is a MATCH: the recording
    holds no outputs to compare. An empty or invalid trace, or a config that
    run_scripted would refuse, raises ValueError.
    """
    problems = validate_config(config) + trace.validate()
    if problems:
        raise ValueError("; ".join(problems))
    source = ReplaySource(trace.samples)
    return enforcement_loop(source, config._replace(run_timeout_us=source.duration_us))


def write_schedule_csv(schedule: Schedule, sink) -> None:
    """Serialize a schedule as `tick,head_delta,trail_delta` rows (1-based ticks)."""
    sink.write("tick,head_delta,trail_delta\n")
    for i in range(schedule.ticks):
        head = schedule.head_deltas[i] if i < len(schedule.head_deltas) else 0
        trail = schedule.trail_deltas[i] if i < len(schedule.trail_deltas) else 0
        sink.write(f"{i + 1},{head},{trail}\n")


def read_schedule_csv(source, period_ticks=1, suspend_latency_ticks=0) -> Schedule:
    """Parse `tick,head_delta,trail_delta` rows into a Schedule; errors name the file line."""
    rows = [(lineno, line.strip()) for lineno, line in enumerate(source, start=1) if line.strip()]
    if not rows or rows[0][1] != "tick,head_delta,trail_delta":
        raise ValueError("expected header 'tick,head_delta,trail_delta'")
    head_deltas, trail_deltas = [], []
    for lineno, line in rows[1:]:
        parts = line.split(",")
        try:
            if len(parts) != 3:
                raise ValueError(f"expected 3 fields, got {len(parts)}")
            tick, head, trail = (int(p) for p in parts)
            if tick != len(head_deltas) + 1:
                raise ValueError("ticks must be consecutive from 1")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        head_deltas.append(head)
        trail_deltas.append(trail)
    return Schedule.of(
        head_deltas, trail_deltas,
        period_ticks=period_ticks,
        suspend_latency_ticks=suspend_latency_ticks,
    )


_DURATION_SUFFIXES = (("us", 1), ("ms", 1000), ("s", 1_000_000))


def _parse_duration_us(text: str) -> int:
    for suffix, scale in _DURATION_SUFFIXES:
        if text.endswith(suffix):
            return int(text[: -len(suffix)]) * scale
    return int(text)  # bare numbers are microseconds


def parse_fault_spec(text: str) -> "FaultSpec":
    """Parse 'bitflip:trail:0:0:3', 'freeze:head:3ms' or 'crash:head'."""
    from .integrity import FaultKind, FaultSpec

    parts = text.strip().split(":")
    if len(parts) < 2:
        raise ValueError(f"fault spec {text!r} needs at least kind:target")
    kind_text, target_text = parts[0], parts[1]
    try:
        kind = FaultKind(kind_text)
    except ValueError:
        raise ValueError(
            f"unknown fault kind {kind_text!r} (expected bitflip, freeze or crash)"
        ) from None
    try:
        target = Role(target_text)
    except ValueError:
        raise ValueError(f"unknown fault target {target_text!r} (expected head or trail)") from None
    params = parts[2:]
    if kind is FaultKind.BIT_FLIP:
        if len(params) != 3:
            raise ValueError("bitflip needs output_index:byte_offset:bit_index")
        output_index, byte_offset, bit_index = (int(p) for p in params)
        if not 0 <= bit_index < 8:
            raise ValueError("bit_index must be 0..7")
        if output_index < 0 or byte_offset < 0:
            raise ValueError("bitflip coordinates must be non-negative")
        return FaultSpec.bit_flip(target, output_index, byte_offset, bit_index)
    if kind is FaultKind.FREEZE:
        if len(params) != 1:
            raise ValueError("freeze needs a duration, e.g. freeze:head:3ms")
        duration_us = _parse_duration_us(params[0])
        if duration_us <= 0:
            raise ValueError("freeze duration must be positive")
        return FaultSpec.freeze(target, duration_us)
    if params:
        raise ValueError("crash takes no parameters")
    return FaultSpec.crash(target)


def parse_workload_id(ident: str, seed: int = 0) -> "Workload":
    """Build a workload from 'name:param' text, e.g. 'matmul:256'; a bare name takes its default."""
    from .workloads import _BUILDERS

    name, _, param_text = ident.strip().partition(":")
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown workload {name!r} (expected one of {', '.join(sorted(_BUILDERS))})"
        )
    if not param_text:
        return _BUILDERS[name](seed=seed)
    try:
        param = int(param_text)
    except ValueError:
        raise ValueError(f"workload parameter must be an integer, got {param_text!r}") from None
    return _BUILDERS[name](param, seed=seed)
