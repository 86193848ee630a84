"""The package root: what `from softlockstep import *` gives a caller."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softlockstep
from softlockstep.calibration import CalibrationReport
from softlockstep.core import Action, MonitorConfig, PayloadSpec, Role, StaggeringSample, Verdict
from softlockstep.integrity import FaultSpec
from softlockstep.progress import ExitKind, ExitStatus, ProgressSource
from softlockstep.sim import CheckResult, Schedule
from softlockstep.workloads import Workload


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from softlockstep import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(softlockstep.__all__))
    assert len(softlockstep.__all__) == len(set(softlockstep.__all__))


@pytest.mark.parametrize("name", [
    "ScriptedSource", "ReplaySource", "ProgressSource", "RealClock",
    "enforcement_loop", "ReplicaSession",
    "spawn_replicas", "decide", "staggering", "validate_config",
    "ExitKind", "ExitStatus", "StaleHandle",
])
def test_internals_leave_the_root_but_stay_importable(name):
    assert not hasattr(softlockstep, name)
    # Looked up by import: the root binds a submodule only once it is imported.
    assert any(hasattr(importlib.import_module(f"softlockstep.{module}"), name)
               for module in ("core", "formats", "monitor", "progress", "replication"))


def test_the_library_loads_without_numpy():
    # A fresh interpreter, since this one has numpy loaded for other tests;
    # measured against its own startup set, which a site hook may enlarge.
    # Only matmul needs numpy and only checksum hashlib, each loaded when built.
    script = (
        "import json, sys\n"
        "startup = set(sys.modules)\n"
        "def added():\n"
        "    return sorted({name.partition('.')[0] for name in set(sys.modules) - startup})\n"
        "import softlockstep, softlockstep.cli\n"
        "from softlockstep.formats import parse_workload_id\n"
        "imported = added()\n"
        "parse_workload_id('spin:10')\n"
        "spin = added()\n"
        "parse_workload_id('checksum:64')\n"
        "print(json.dumps([imported, spin, added()]))\n"
    )
    src = os.path.dirname(os.path.dirname(softlockstep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    imported, spin, checksum = json.loads(result.stdout)
    heavy = {"numpy", "dataclasses", "inspect", "hashlib", "fractions", "decimal", "traceback"}
    assert heavy.isdisjoint(imported)
    assert heavy.isdisjoint(spin)
    assert "numpy" not in checksum and "hashlib" in checksum


def test_the_simulator_path_loads_no_process_layer():
    # A fresh interpreter, measured against its own startup set as above. The
    # process layer and csv load with the first protect(), calibrate() or trace
    # file; the simulator, the model checker, scripted runs, replay and the
    # CLI's simulate need none of them.
    script = (
        "import json, sys\n"
        "startup = set(sys.modules)\n"
        "import softlockstep, softlockstep.cli\n"
        "from softlockstep import MonitorConfig, Schedule\n"
        "schedule = Schedule.of([2, 1, 2], [1, 2, 1], suspend_latency_ticks=1)\n"
        "softlockstep.exhaustive_check([0, 1, 2], 3, 1, 1, 4)\n"
        "softlockstep.simulate(schedule, 2)\n"
        "_, trace = softlockstep.run_scripted(schedule, MonitorConfig(threshold_instructions=2))\n"
        "softlockstep.replay(trace, MonitorConfig(threshold_instructions=2))\n"
        "softlockstep.cli.main(['simulate', '--alphabet', '0,1,2', '--ticks', '3',\n"
        "                       '--latency', '1', '--threshold', '4'])\n"
        "added = sorted(set(sys.modules) - startup)\n"
        "resolved = [softlockstep.calibrate.__name__, softlockstep.CalibrationReport.__name__,\n"
        "            softlockstep.SpawnFailure.__name__]\n"
        "print(json.dumps([added, resolved]))\n"
    )
    src = os.path.dirname(os.path.dirname(softlockstep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    added, resolved = json.loads(result.stdout.strip().splitlines()[-1])
    process_layer = {"softlockstep.replication", "softlockstep.linuxperf",
                     "softlockstep.calibration", "ctypes", "mmap", "select", "signal",
                     "csv"}
    assert process_layer.isdisjoint(added)
    assert resolved == ["calibrate", "CalibrationReport", "SpawnFailure"]


_FORMAT_NAMES = ("parse_fault_spec", "parse_workload_id", "read_schedule_csv", "read_trace",
                 "replay", "write_schedule_csv", "write_trace")


def test_the_simulator_path_compiles_no_file_format():
    # A fresh interpreter, measured against its own startup set as above. The
    # file formats, text parsers and replay resolve on first access from the
    # root; the model checker, the simulator and scripted runs need none of them.
    script = (
        "import json, sys\n"
        "startup = set(sys.modules)\n"
        "import softlockstep\n"
        "from softlockstep import MonitorConfig, Schedule\n"
        "schedule = Schedule.of([2, 1, 2], [1, 2, 1], suspend_latency_ticks=1)\n"
        "softlockstep.exhaustive_check([0, 1, 2], 3, 1, 1, 4)\n"
        "softlockstep.simulate(schedule, 2)\n"
        "softlockstep.run_scripted(schedule, MonitorConfig(threshold_instructions=2))\n"
        "added = sorted(set(sys.modules) - startup)\n"
        "import softlockstep.formats as formats\n"
        f"names = {_FORMAT_NAMES!r}\n"
        "resolved = [getattr(softlockstep, name) is getattr(formats, name) for name in names]\n"
        "print(json.dumps([added, resolved]))\n"
    )
    src = os.path.dirname(os.path.dirname(softlockstep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    added, resolved = json.loads(result.stdout)
    assert {"softlockstep.formats", "csv"}.isdisjoint(added)
    assert resolved == [True] * len(_FORMAT_NAMES)


def test_each_path_loads_only_the_modules_it_runs():
    # A fresh interpreter, measured against its own startup set as above.
    # Fault injection and the workloads load with protect() or the parsers,
    # the file formats with the first file, parser or replay.
    script = (
        "import json, sys\n"
        "startup = set(sys.modules)\n"
        "def added():\n"
        "    return sorted(set(sys.modules) - startup)\n"
        "import softlockstep\n"
        "from softlockstep import MonitorConfig, Schedule\n"
        "config = MonitorConfig(threshold_instructions=2)\n"
        "schedule = Schedule.of([2, 1, 2], [1, 2, 1], suspend_latency_ticks=1)\n"
        "softlockstep.exhaustive_check([0, 1, 2], 3, 1, 1, 4)\n"
        "softlockstep.simulate(schedule, 2)\n"
        "_, trace = softlockstep.run_scripted(schedule, config)\n"
        "simulator = added()\n"
        "import softlockstep.cli\n"
        "code = softlockstep.cli.main(['simulate', '--alphabet', '0,1,2', '--ticks', '3',\n"
        "                              '--latency', '1', '--threshold', '0'])\n"
        "cli = added()\n"
        "softlockstep.replay(trace, config)\n"
        "replayed = added()\n"
        "from softlockstep import integrity, workloads\n"
        "resolved = [softlockstep.FaultSpec is integrity.FaultSpec,\n"
        "            softlockstep.Workload is workloads.Workload,\n"
        "            softlockstep.direct_run is workloads.direct_run]\n"
        "print(json.dumps([simulator, code, cli, replayed, resolved]))\n"
    )
    src = os.path.dirname(os.path.dirname(softlockstep.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    simulator, code, cli, replayed, resolved = json.loads(result.stdout.strip().splitlines()[-1])
    injection_and_workloads = {"softlockstep.integrity", "softlockstep.workloads"}
    assert injection_and_workloads.isdisjoint(simulator)
    assert code == 1  # unsafe, with no counterexample file to write
    assert injection_and_workloads.isdisjoint(cli) and "softlockstep.formats" not in cli
    assert injection_and_workloads.isdisjoint(replayed) and "softlockstep.formats" in replayed
    assert resolved == [True, True, True]


def _records():
    """One value of each record type, and a field to change in it."""
    payload = PayloadSpec.of([b"ab"], [2], [1])
    sample = StaggeringSample(1, 1000, 3, 5, Action.DIVERSITY_LOSS)
    schedule = Schedule.of([1, 2], [2, 1], suspend_latency_ticks=1)
    return [
        (MonitorConfig(threshold_instructions=5, head_core=0), "check_period_us", 7),
        (payload, "output_sizes", (2,)),
        (sample, "timestamp_ns", 2000),
        (Verdict.diversity_loss(sample), "detail", "why"),
        (ExitStatus(ExitKind.NONZERO_EXIT, 3), "code", 4),
        (FaultSpec.bit_flip(Role.TRAIL, 0, 1, 2), "bit_index", 3),
        (CalibrationReport("task-clock", 1e9, 100, 50, 2.0, 300_000), "safety_margin", 3.0),
        (schedule, "period_ticks", 2),
        (CheckResult(False, schedule, 9), "schedules_checked", 10),
        (Workload("bulk", 2, 0, payload, bytes), "seed", 1),
    ]


@pytest.mark.parametrize("index", range(len(_records())),
                         ids=[type(record).__name__ for record, _, _ in _records()])
def test_records_keep_their_value_semantics(index):
    record, name, other = _records()[index]
    twin = _records()[index][0]  # built apart from record, from equal values
    for attribute in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, other)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    assert record._replace() == record
    changed = record._replace(**{name: other})
    assert type(changed) is type(record) and changed != record
    assert getattr(changed, name) == other
    assert changed._replace(**{name: getattr(record, name)}) == record


_PACKAGE = Path(softlockstep.__file__).parent


def _names(node):
    """The names a node binds or refers to: a name, an attribute, an import."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname} - {None}
    return set()


def _scoped_nodes():
    """(module, innermost enclosing function, node) for every node of the package."""
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            scope = node
            while scope in parents and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents[scope]
            yield path.stem, getattr(scope, "name", None), node


def _uses_of(name):
    """(module, innermost enclosing function) of each call to and import of name."""
    calls, imports = [], []
    for module, function, node in _scoped_nodes():
        if isinstance(node, ast.alias) and name in _names(node):
            imports.append(module)
        if isinstance(node, ast.Call) and name in _names(node.func):
            calls.append((module, function))
    return calls, imports


def _reads_of(name):
    """(module, innermost enclosing function) of each load of name, bare or as an attribute."""
    return [(module, function) for module, function, node in _scoped_nodes()
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and name in _names(node)]


def test_the_staggering_rule_runs_in_one_production_loop():
    # The simulator runs the enforcement loop rather than a copy of its rule,
    # so the model checker's oracle is the production loop itself.
    assert _uses_of("decide") == ([("monitor", "enforcement_loop")], ["monitor"])
    # What each action leaves the trail in is one table, which the loop applies
    # at one site and Trace.validate checks recorded runs against.
    assert sorted(_reads_of("TRAIL_STATE_AFTER")) == [("monitor", "enforcement_loop"),
                                                      ("monitor", "validate")]
    for request in ("suspend", "resume"):
        assert _reads_of(request).count(("monitor", "enforcement_loop")) == 1
    sim = ast.parse((_PACKAGE / "sim.py").read_text())
    named = set().union(*(_names(node) for node in ast.walk(sim)))
    assert not named & {"decide", "TrailState"}
    # Nor a second scripted source: simulate runs progress.ScriptedSource as it is.
    classes = [value for value in vars(softlockstep.sim).values()
               if isinstance(value, type) and value.__module__ == softlockstep.sim.__name__]
    assert classes and not any(issubclass(cls, ProgressSource) for cls in classes)


def test_the_replica_session_is_mechanism_only():
    # Arguments are refused at the door, before any fork, and faults are
    # armed around the session (integrity, monitor._compare), never kept in it.
    tree = ast.parse((_PACKAGE / "replication.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {getattr(node, "module", None)}.union(*map(_names, node.names))
    assert "integrity" not in imported
    assert _uses_of("check_bit") == ([("monitor", "protect")], [])
    assert "replication" not in {module for module, _ in _uses_of("validate_config")[0]}
    # Nor is a progress source rewritten at run time: a freeze run's loop
    # polls integrity's driver, which forwards to the session.
    rewritten = [
        f"{path.name}:{node.lineno}"
        for path in sorted(_PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
        and node.attr in {"suspend", "resume", "read_count", "exit_status", "wait_one_period",
                          "now_ns"}
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert rewritten == []


def test_the_loop_takes_only_a_source_that_is_its_own_clock():
    # The source waits, stamps and names its backend: the loop takes no clock,
    # hook or backend beside it.
    loop = softlockstep.monitor.enforcement_loop
    assert list(inspect.signature(loop).parameters) == ["source", "config"]


def test_only_the_session_builds_a_real_clock():
    # A live run waits through its session's clock, and calibration probes
    # the latency through the session's freeze: no caller polls at a period
    # of its own.
    assert _uses_of("RealClock") == ([("replication", "__init__")], ["replication"])
