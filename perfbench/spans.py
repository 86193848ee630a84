"""Spans around softlockstep's public functions, and the per-layer metrics.

Tracer wraps each function at the name its caller resolves (a module or class
attribute), records one span per call (name, start, end, parent, op id) in
memory, and restores the originals on uninstall. Nothing in the library is
edited. Timestamps come from time.monotonic_ns, the clock RealClock stamps
trace samples with, so spans and samples share one time axis.
"""

from __future__ import annotations

import json
import statistics
import time

from softlockstep import core, integrity, linuxperf, monitor, progress, replication, sim
from softlockstep.core import Action

PROTECT = "monitor.protect"
PAYLOAD = "core.PayloadSpec.of"
SPAWN = "replication.spawn_replicas"
PROBE = "linuxperf.probe_counter"
OPEN = "linuxperf.open_counter"
READ = "linuxperf.read_counter"
LOOP = "monitor.enforcement_loop"
WAIT = "progress.RealClock.wait_one_period"
COLLECT = "replication.ReplicaSession.collect_outputs"
COMPARE = "integrity.compare_outputs"
RELEASE = "replication.ReplicaSession.release"
EXHAUSTIVE = "sim.exhaustive_check"
OP = "bench.op"

# (owner, attribute, span name): where each caller looks the function up.
TARGETS = (
    (monitor, "protect", PROTECT),
    (core.PayloadSpec, "of", PAYLOAD),
    (monitor, "spawn_replicas", SPAWN),
    (linuxperf, "probe_counter", PROBE),
    (linuxperf, "open_counter", OPEN),
    (linuxperf, "read_counter", READ),
    (linuxperf, "close_counter", "linuxperf.close_counter"),
    (monitor, "enforcement_loop", LOOP),
    (progress.RealClock, "wait_one_period", WAIT),
    (replication.ReplicaSession, "collect_outputs", COLLECT),
    (integrity, "compare_outputs", COMPARE),
    (replication.ReplicaSession, "release", RELEASE),
    (sim, "exhaustive_check", EXHAUSTIVE),
)


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent_index, op_id] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()

        return traced

    def wrap_op(self, fn):
        """The benchmark's own root span around one operation."""
        return self.wrap(OP, fn)

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")


def nesting_problems(spans) -> list[str]:
    """Child spans must lie within their parents; children of protect must not
    add up to more than the op's wall time."""
    problems = []
    child_sum: dict[int, int] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end = spans[parent][:3]
            if start < p_start or end > p_end:
                problems.append(f"span {index} {name} lies outside its parent {p_name}")
            child_sum[parent] = child_sum.get(parent, 0) + end - start
    for index, (name, start, end, _, _) in enumerate(spans):
        if name in (PROTECT, OP) and child_sum.get(index, 0) > end - start:
            problems.append(f"phases of {name} span {index} sum to more than its wall time")
    return problems


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _trace_stats(trace, loop_start_ns: int) -> dict:
    """What one protected run's trace says about the loop."""
    samples = trace.samples
    suspended_since = loop_start_ns
    suspended_ns = 0
    head_done_ns = trail_done_ns = None
    resumed = False
    margin = None
    counts = {action: 0 for action in Action}
    for s in samples:
        counts[s.action] += 1
        if s.action is Action.RESUME:
            resumed = True
        if head_done_ns is None and (resumed or s.action is Action.HEAD_DONE):
            margin = s.staggering if margin is None else min(margin, s.staggering)
        if s.action in (Action.SUSPEND, Action.DIVERSITY_LOSS) and suspended_since is None:
            suspended_since = s.timestamp_ns
        elif s.action in (Action.RESUME, Action.HEAD_DONE) and suspended_since is not None:
            suspended_ns += s.timestamp_ns - suspended_since
            suspended_since = None
        if s.action is Action.HEAD_DONE:
            head_done_ns = s.timestamp_ns
        elif s.action is Action.TRAIL_DONE:
            trail_done_ns = s.timestamp_ns
    stamps = [s.timestamp_ns for s in samples]
    return {
        "checks": len(samples),
        "acted": counts[Action.SUSPEND] + counts[Action.RESUME] + counts[Action.DIVERSITY_LOSS],
        "suspends": counts[Action.SUSPEND],
        "resumes": counts[Action.RESUME],
        "suspended_ms": suspended_ns / 1e6,
        "head_done_ms": (head_done_ns - loop_start_ns) / 1e6,
        "drain_ms": (trail_done_ns - head_done_ns) / 1e6,
        # Lowest staggering from the first RESUME through HEAD_DONE; with no
        # RESUME before HEAD_DONE the trail never ran beside the head, and the
        # head's lead at HEAD_DONE is the margin.
        "margin": margin / trace.threshold,
        "gaps_us": [(b - a) / 1000 for a, b in zip(stamps, stamps[1:])],
    }


def layer_metrics(spans, traces: dict, output_bytes: int, period_us: int,
                  safe_schedules: int) -> dict[str, float]:
    """Per-layer metrics from the spans and protect() traces of traced ops.

    traces maps the op id of each passing protected op to the Trace its
    protect() returned. Sums are per op and reported as the median over ops
    unless the name says otherwise. Layers no traced op reaches report 0.
    """
    children: dict[int, int] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0) + end - start
    per_op: dict[int, dict[str, list]] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        # open_counter also runs inside probe_counter; count only the attaches.
        if name == OPEN and spans[parent][0] != SPAWN:
            continue
        per_op.setdefault(op, {}).setdefault(name, []).append(
            (end - start, end - start - children.get(index, 0), start)
        )
    ops = [op for op in per_op if op in traces and PROTECT in per_op[op]]

    def op_ms(name, self_time=False):
        return [sum(s[1] if self_time else s[0] for s in per_op[op].get(name, ())) / 1e6
                for op in ops]

    reads = [s[0] for op in ops for s in per_op[op].get(READ, ())]
    waits = [s[0] for op in ops for s in per_op[op].get(WAIT, ())]
    stats = [_trace_stats(traces[op], per_op[op][LOOP][0][2]) for op in ops]
    gaps = sorted(g for st in stats for g in st["gaps_us"])
    checks = sum(st["checks"] for st in stats)
    loop_ms = op_ms(LOOP)
    busy_ms = [loop - wait for loop, wait in zip(loop_ms, op_ms(WAIT))]
    compare_ms = _median(op_ms(COMPARE))
    sim_pairs = [e[EXHAUSTIVE] for e in per_op.values() if len(e.get(EXHAUSTIVE, ())) == 2]
    return {
        "linuxperf.probe_ms": _median(op_ms(PROBE)),
        "linuxperf.open_ms": _median(op_ms(OPEN)),
        "linuxperf.read_us": statistics.fmean(reads) / 1e3 if reads else 0.0,
        "linuxperf.reads": len(reads) / len(ops) if ops else 0.0,
        "core.payload_ms": _median(op_ms(PAYLOAD)),
        "replication.spawn_ms": _median(op_ms(SPAWN)),
        "replication.spawn_self_ms": _median(op_ms(SPAWN, self_time=True)),
        "replication.collect_ms": _median(op_ms(COLLECT)),
        "replication.release_ms": _median(op_ms(RELEASE)),
        "integrity.compare_ms": compare_ms,
        "integrity.compare_mb_s": output_bytes / 1e3 / compare_ms if compare_ms else 0.0,
        "monitor.loop_ms": _median(loop_ms),
        "monitor.loop_busy_ms": _median(busy_ms),
        "monitor.checks": checks / len(ops) if ops else 0.0,
        "monitor.check_busy_us": sum(busy_ms) * 1e3 / checks if checks else 0.0,
        "monitor.protect_self_ms": _median(op_ms(PROTECT, self_time=True)),
        "monitor.gap_us_p50": _quantile(gaps, 0.5),
        "monitor.gap_us_p99": _quantile(gaps, 0.99),
        "monitor.gap_us_max": gaps[-1] if gaps else 0.0,
        "progress.sleep_overrun_us": statistics.fmean(waits) / 1e3 - period_us if waits else 0.0,
        "monitor.suspends": statistics.fmean(st["suspends"] for st in stats) if stats else 0.0,
        "monitor.resumes": statistics.fmean(st["resumes"] for st in stats) if stats else 0.0,
        "monitor.trail_suspended_ms": _median([st["suspended_ms"] for st in stats]),
        "monitor.head_done_ms": _median([st["head_done_ms"] for st in stats]),
        "monitor.drain_ms": _median([st["drain_ms"] for st in stats]),
        "monitor.action_share": sum(st["acted"] for st in stats) / checks if checks else 0.0,
        "monitor.min_margin": min(st["margin"] for st in stats) if stats else 0.0,
        "sim.check_s": _median([safe[0] / 1e9 for safe, _ in sim_pairs]),
        "sim.schedules_per_s": _median([safe_schedules / (safe[0] / 1e9) for safe, _ in sim_pairs]),
        "sim.counterexample_ms": _median([unsafe[0] / 1e6 for _, unsafe in sim_pairs]),
    }
