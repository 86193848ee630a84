"""Software lockstep: run a computation twice with enforced staggering.

A protected run forks the computation into two OS processes (head and trail)
on private copies of the inputs, keeps the trail at least a threshold of
progress behind the head by suspending and resuming it, and compares the two
output sets byte for byte when both finish; any difference is reported. A
fault that reaches one replica only, such as a flipped bit in input data the
head has already read and the trail has not, is detected whenever it changes
that replica's outputs. A fault in data that neither replica has read yet
reaches both: it can corrupt both outputs identically, and such a run ends
as MATCH.

Importing the package loads the pure-Python layers: the domain types, the
progress sources, the enforcement loop, and the simulator and model checker.
The first protect() adds output comparison and fault injection (integrity)
and the process layer (replication, linuxperf, and with them ctypes, mmap
and signal); calibrate() adds the process layer too. FaultSpec, Workload,
direct_run, the calibration names, and the file formats, text parsers and
replay (the formats module) resolve on their first access.
"""

from importlib import import_module as _import_module

from .core import (
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    Role,
    StaggeringSample,
    Verdict,
    VerdictKind,
    WrappedComputation,
)
from .monitor import Trace, protect, run_scripted
from .progress import CounterUnavailable, PinningFailure, SpawnFailure
from .sim import (
    CheckResult,
    EmptyTrace,
    Schedule,
    SearchSpaceTooLarge,
    SimTrace,
    exhaustive_check,
    min_staggering,
    simulate,
)

__version__ = "0.1.0"

# Resolved on first access (PEP 562), each from its module: a run that never
# calibrates, reads or writes a file, replays, parses text, injects a fault or
# builds a workload never compiles calibration, formats, integrity or workloads.
_LAZY_NAMES = {
    "FaultSpec": "integrity",
    "Workload": "workloads",
    "direct_run": "workloads",
    "CalibrationReport": "calibration",
    "calibrate": "calibration",
    "read_report": "calibration",
    "recommend_threshold": "calibration",
    "write_report": "calibration",
    "parse_fault_spec": "formats",
    "parse_workload_id": "formats",
    "read_schedule_csv": "formats",
    "read_trace": "formats",
    "replay": "formats",
    "write_schedule_csv": "formats",
    "write_trace": "formats",
}


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


# What callers of protect, calibrate, replay, run_scripted, the simulator and
# the CLI use. Test doubles and internals stay importable from their modules.
__all__ = [
    "Action",
    "CalibrationReport",
    "CheckResult",
    "CounterUnavailable",
    "DiversityLossPolicy",
    "EmptyTrace",
    "FaultSpec",
    "MonitorConfig",
    "PinningFailure",
    "Role",
    "Schedule",
    "SearchSpaceTooLarge",
    "SimTrace",
    "SpawnFailure",
    "StaggeringSample",
    "Trace",
    "Verdict",
    "VerdictKind",
    "Workload",
    "WrappedComputation",
    "calibrate",
    "direct_run",
    "exhaustive_check",
    "min_staggering",
    "parse_fault_spec",
    "parse_workload_id",
    "protect",
    "read_report",
    "read_schedule_csv",
    "read_trace",
    "recommend_threshold",
    "replay",
    "run_scripted",
    "simulate",
    "write_report",
    "write_schedule_csv",
    "write_trace",
]
