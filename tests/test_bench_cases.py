"""The benchmark's workloads, one gated operation each.

perfbench/ calls the library the way a user would; running each of its cases
once here makes a library change that breaks those calls fail this suite, not
only the benchmark run.
"""

import sys
from pathlib import Path

import pytest

from softlockstep import linuxperf, monitor
from softlockstep.core import VerdictKind
from softlockstep.progress import CounterUnavailable
from softlockstep.workloads import checksum_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import cases  # noqa: E402
import spans  # noqa: E402

try:
    linuxperf.probe_counter(cases.COUNTER)
    _counter_reason = ""
except CounterUnavailable as exc:
    _counter_reason = str(exc)


@pytest.mark.parametrize("name", cases.NAMES)
def test_one_operation_of_each_benchmark_case_passes_its_gate(name):
    case = cases.build(name, seed=0)
    if case.protected and _counter_reason:
        pytest.skip(f"no progress counter: {_counter_reason}")
    case.reset()
    assert case.check(case.run()) == []


def test_the_benchmark_tracer_wraps_and_restores_every_function_it_names():
    # The tracer finds library functions by attribute name, so a renamed or
    # removed one fails here, not only in a traced benchmark run.
    originals = [vars(owner)[attr] for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr, _), raw in zip(spans.TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw
               for (owner, attr, _), raw in zip(spans.TARGETS, originals))


def test_protect_runs_once_through_each_layer_the_tracer_times():
    # Each per-layer metric is read from the span of one wrapped function: a
    # protect() that stopped calling it through the wrapped name would report
    # that layer as zero.
    if _counter_reason:
        pytest.skip(f"no progress counter: {_counter_reason}")
    workload = checksum_workload(nbytes=4096)
    payload = workload.payload
    outputs = [bytearray(size) for size in payload.output_sizes]
    tracer = spans.Tracer()
    try:
        tracer.install()
        verdict, _ = monitor.protect(workload.computation, payload.inputs, payload.input_sizes,
                                     outputs, payload.output_sizes, cases.CONFIG,
                                     counter=cases.COUNTER)
    finally:
        tracer.uninstall()
    assert verdict.kind is VerdictKind.MATCH
    names = [span[0] for span in tracer.spans]
    assert names.count(spans.PROTECT) == 1
    protect = names.index(spans.PROTECT)

    def inside_protect(index):
        while index >= 0 and index != protect:
            index = tracer.spans[index][3]
        return index == protect

    for name in (spans.SPAWN, spans.LOOP, spans.COMPARE):
        inside = [i for i, n in enumerate(names) if n == name and inside_protect(tracer.spans[i][3])]
        assert len(inside) == names.count(name) == 1, name
