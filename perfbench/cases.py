"""The benchmark's four workloads and the correctness gate for each operation.

One operation is one protect() call, or one exhaustive_check pair on
model-check. Every protected workload uses the same monitor config (CONFIG).
The library is reached only through its public functions, always through the
module attribute (monitor.protect, sim.exhaustive_check), so that a traced run
can wrap them where the caller resolves them.
"""

from __future__ import annotations

import itertools

import numpy as np

from softlockstep import integrity, monitor, sim, workloads
from softlockstep.core import Action, MonitorConfig, PayloadSpec, Role, VerdictKind

# The fixed monitor config of every protected workload: counter "auto", no
# pinning, RECORD_AND_CONTINUE (MonitorConfig's defaults).
#
# The threshold meets the bound threshold >= r * (P + L) for the check period
# the monitor actually achieves, not the nominal 1 ms: with head, trail and
# monitor on two vCPUs and no pinning, a waking monitor can wait for a CPU, and
# with one more CPU-bound process on the host the trail gained up to 18.5 ms of
# task-clock on the head between two checks (longest gap 23.6 ms; traced runs
# on a quieter host saw gaps up to 27.6 ms). That is
# P + L ~= 25 ms at r = 1 task-clock ns per ns, doubled as the safety margin.
# At 2_000_000 (2 ms of task-clock), spin:3000000 lost diversity in 6% of runs
# on a quiet host and 51% with one competing process.
THRESHOLD = 50_000_000
CHECK_PERIOD_US = 1000
COUNTER = "auto"
CONFIG = MonitorConfig(threshold_instructions=THRESHOLD, check_period_us=CHECK_PERIOD_US)


def config_facts() -> dict:
    return {
        "threshold_instructions": CONFIG.threshold_instructions,
        "check_period_us": CONFIG.check_period_us,
        "counter": COUNTER,
        "cores": [CONFIG.head_core, CONFIG.trail_core, CONFIG.monitor_core],
        "diversity_loss_policy": CONFIG.diversity_loss_policy.name,
    }


BULK_BYTES = 16 << 20
SMALL_BYTES = 65536
SPIN_ITERS = 3_000_000

# model-check: safe at threshold 4, a counterexample at threshold 3.
MODEL_ALPHABET = (0, 1, 2)
MODEL_TICKS = 6
MODEL_PERIOD = 1
MODEL_LATENCY = 1
MODEL_SAFE_THRESHOLD = 4
MODEL_UNSAFE_THRESHOLD = 3

# The workloads. checksum:65536 ("small") is left out of them: its
# protect() is bound by fork, signal and sleep wake-up latency, which doubled
# with 1-2% hypervisor steal time while the in-process hash it is divided by
# slowed by a tenth. Its layers are measured on the other protected workloads,
# and its operation is the side operation of model-check's traced run.
NAMES = ("bulk", "bulk-flip", "compute", "model-check")


def _invert(inputs, outputs) -> None:
    """The bulk wrapper: byte-invert input 0 into output 0."""
    src = np.frombuffer(inputs[0], dtype=np.uint8)
    np.invert(src, out=np.frombuffer(outputs[0], dtype=np.uint8))


def _bulk_case(seed: int, **kwargs) -> "ProtectedCase":
    # The caller holds its data in a numpy array, so PayloadSpec.of copies it.
    data = np.random.default_rng(seed).integers(0, 256, size=BULK_BYTES, dtype=np.uint8)
    payload = PayloadSpec.of([data], [BULK_BYTES], [BULK_BYTES])
    workload = workloads.Workload(
        name="bulk", param=BULK_BYTES, seed=seed, payload=payload, computation=_invert
    )
    return ProtectedCase(workload, inputs=[data], **kwargs)


class ProtectedCase:
    """A workload run through monitor.protect with the fixed config."""

    protected = True

    def __init__(self, workload: workloads.Workload, inputs=None, inject=None, expect_mismatch=()):
        self.workload = workload
        self.inputs = workload.payload.inputs if inputs is None else inputs
        self.inject = inject
        self.expect_mismatch = tuple(expect_mismatch)
        self.reference = workloads.direct_run(workload)
        self.outputs = [bytearray(size) for size in workload.payload.output_sizes]
        self.output_bytes = workload.payload.total_output_bytes
        # The reference call writes into buffers allocated once: a fresh 16 MiB
        # allocation costs either ~5 ms or ~25 ms of page faults depending on
        # the allocator's state, which would make slowdown_x bimodal.
        self._direct_inputs = [memoryview(data) for data in workload.payload.inputs]
        self._direct_outputs = [memoryview(bytearray(size)) for size in workload.payload.output_sizes]

    def reset(self) -> None:
        """Zero the caller's outputs, so a missing copy-back cannot go unseen."""
        for buf in self.outputs:
            np.frombuffer(buf, dtype=np.uint8).fill(0)

    def run(self):
        payload = self.workload.payload
        return monitor.protect(
            self.workload.computation,
            self.inputs,
            payload.input_sizes,
            self.outputs,
            payload.output_sizes,
            CONFIG,
            counter=COUNTER,
            inject=self.inject,
        )

    def check(self, result) -> list[str]:
        verdict, trace = result
        problems = list(trace.validate())
        if any(s.action is Action.DIVERSITY_LOSS for s in trace.samples):
            problems.append("trace has a DIVERSITY_LOSS sample")
        if self.expect_mismatch:
            if verdict.kind is not VerdictKind.MISMATCH or verdict.mismatches != self.expect_mismatch:
                problems.append(f"expected MISMATCH at {self.expect_mismatch}, got {verdict.describe()}")
            elif any(np.frombuffer(buf, dtype=np.uint8).any() for buf in self.outputs):
                problems.append("MISMATCH changed the caller's outputs")
        elif verdict.kind is not VerdictKind.MATCH:
            problems.append(f"expected MATCH, got {verdict.describe()}")
        elif any(buf != ref for buf, ref in zip(self.outputs, self.reference)):
            problems.append("MATCH left outputs that differ from the in-process reference")
        return problems

    def direct(self) -> None:
        """The wrapper in this process on the same inputs: slowdown_x's base."""
        self.workload.computation(self._direct_inputs, self._direct_outputs)


class ModelCheckCase:
    """One exhaustive_check pair: certify the safe threshold, refute the one below."""

    protected = False
    output_bytes = 0

    def __init__(self):
        # Schedules each check of the pair visits; the unsafe one stops early.
        space = len(MODEL_ALPHABET) ** (2 * MODEL_TICKS)
        self.visits = (space, self._check(MODEL_UNSAFE_THRESHOLD).schedules_checked)

    def reset(self) -> None:
        pass

    def _check(self, threshold: int):
        return sim.exhaustive_check(
            MODEL_ALPHABET, MODEL_TICKS, MODEL_PERIOD, MODEL_LATENCY, threshold
        )

    def run(self):
        return self._check(MODEL_SAFE_THRESHOLD), self._check(MODEL_UNSAFE_THRESHOLD)

    def check(self, result) -> list[str]:
        safe, unsafe = result
        problems = []
        space = len(MODEL_ALPHABET) ** (2 * MODEL_TICKS)
        if not safe.safe or safe.schedules_checked != space:
            problems.append(f"threshold {MODEL_SAFE_THRESHOLD} not certified over {space} schedules")
        if unsafe.safe or unsafe.counterexample is None:
            problems.append(f"threshold {MODEL_UNSAFE_THRESHOLD} gave no counterexample")
        else:
            replayed = sim.simulate(unsafe.counterexample, MODEL_UNSAFE_THRESHOLD)
            if sim.min_staggering(replayed) >= 0:
                problems.append("the counterexample does not lose staggering in simulate()")
        return problems

    def direct(self) -> None:
        """The same schedule pairs enumerated without the model: slowdown_x's base."""
        for visits in self.visits:
            _enumerate_pairs(visits)


def _enumerate_pairs(limit: int) -> None:
    visited = 0
    for head in itertools.product(MODEL_ALPHABET, repeat=MODEL_TICKS):
        for trail in itertools.product(MODEL_ALPHABET, repeat=MODEL_TICKS):
            visited += 1
            if visited == limit:
                return


def small_case(seed: int) -> ProtectedCase:
    """checksum:65536, the cheapest protect(): the fixed per-call cost."""
    return ProtectedCase(workloads.checksum_workload(SMALL_BYTES, seed=seed))


def build(name: str, seed: int):
    """The case for one workload; its inputs depend only on the seed."""
    if name == "bulk":
        return _bulk_case(seed)
    if name == "bulk-flip":
        flip = integrity.FaultSpec.bit_flip(Role.TRAIL, 0, BULK_BYTES - 1, 0)
        return _bulk_case(seed, inject=flip, expect_mismatch=[(0, BULK_BYTES - 1)])
    if name == "compute":
        return ProtectedCase(workloads.spin_workload(SPIN_ITERS, seed=seed))
    if name == "model-check":
        return ModelCheckCase()
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(NAMES)})")
