"""perf_event_open plumbing for per-process progress counters.

Two counter kinds are supported. "instructions" counts user-mode retired
instructions of one process via the hardware PMU; it is the real progress
metric but needs a PMU (often missing inside VMs) and enough privilege.
"task-clock" counts the nanoseconds the process spends on a CPU, in user
and kernel mode alike (page faults and system calls included), via the
kernel software clock; exclude_kernel does not change what it counts. It
needs no PMU, satisfies the same contract (monotone, no replica cooperation,
frozen while the process is stopped), and serves as the degraded-but-honest
progress metric where the PMU is absent. "auto" prefers instructions and
falls back to task-clock.

Counters are opened against a process that is already stopped, so the count
reads 0 until the replica is first continued.
"""

from __future__ import annotations

import ctypes
import errno
import os
import struct
import sys

from .progress import CounterUnavailable

COUNTER_INSTRUCTIONS = "instructions"
COUNTER_TASK_CLOCK = "task-clock"
COUNTER_AUTO = "auto"
COUNTER_KINDS = (COUNTER_INSTRUCTIONS, COUNTER_TASK_CLOCK, COUNTER_AUTO)

_PERF_TYPE_HARDWARE = 0
_PERF_TYPE_SOFTWARE = 1
_PERF_COUNT_HW_INSTRUCTIONS = 1
_PERF_COUNT_SW_TASK_CLOCK = 1

# flags bitfield positions in perf_event_attr
_FLAG_DISABLED = 1 << 0
_FLAG_EXCLUDE_KERNEL = 1 << 5
_FLAG_EXCLUDE_HV = 1 << 6

_SYSCALL_NR = {
    "x86_64": 298,
    "aarch64": 241,
    "arm64": 241,
    "riscv64": 241,
}


class _PerfEventAttr(ctypes.Structure):
    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("bp_addr", ctypes.c_uint64),
        ("bp_len", ctypes.c_uint64),
        ("branch_sample_type", ctypes.c_uint64),
        ("sample_regs_user", ctypes.c_uint64),
        ("sample_stack_user", ctypes.c_uint32),
        ("clockid", ctypes.c_int32),
        ("sample_regs_intr", ctypes.c_uint64),
        ("aux_watermark", ctypes.c_uint32),
        ("sample_max_stack", ctypes.c_uint16),
        ("__reserved_2", ctypes.c_uint16),
        ("aux_sample_size", ctypes.c_uint32),
        ("__reserved_3", ctypes.c_uint32),
        ("sig_data", ctypes.c_uint64),
        ("config3", ctypes.c_uint64),
    ]


_libc = None


def _get_libc():
    global _libc
    if _libc is None:
        _libc = ctypes.CDLL(None, use_errno=True)
    return _libc


def _remediation(kind: str, err: int) -> str:
    if err in (errno.EACCES, errno.EPERM):
        return (
            f"opening the {kind} counter was denied (errno {err}): lower "
            "kernel.perf_event_paranoid (e.g. `sysctl kernel.perf_event_paranoid=2` "
            "or less) or grant CAP_PERFMON to the controlling process"
        )
    if err == errno.ENOENT:
        if kind == COUNTER_INSTRUCTIONS:
            return (
                "the hardware retired-instruction PMU is not exposed on this host "
                "(errno ENOENT; common inside virtual machines): run on hardware "
                "with a PMU, enable the guest vPMU, or use the task-clock counter"
            )
        return f"the {kind} perf event does not exist on this kernel (errno ENOENT)"
    if err == errno.ENOSYS:
        return "this kernel has no perf_event_open support (errno ENOSYS)"
    return f"perf_event_open({kind}) failed: {os.strerror(err)} (errno {err})"


def _open(pid: int, kind: str) -> int:
    if sys.platform != "linux":
        raise CounterUnavailable(
            "per-process progress counters require Linux perf_event_open; "
            f"this platform is {sys.platform}"
        )
    nr = _SYSCALL_NR.get(os.uname().machine)
    if nr is None:
        raise CounterUnavailable(
            f"perf_event_open syscall number unknown for architecture {os.uname().machine}"
        )
    attr = _PerfEventAttr()
    attr.size = ctypes.sizeof(_PerfEventAttr)
    if kind == COUNTER_INSTRUCTIONS:
        attr.type = _PERF_TYPE_HARDWARE
        attr.config = _PERF_COUNT_HW_INSTRUCTIONS
    elif kind == COUNTER_TASK_CLOCK:
        attr.type = _PERF_TYPE_SOFTWARE
        attr.config = _PERF_COUNT_SW_TASK_CLOCK
    else:
        raise ValueError(f"unknown counter kind {kind!r}")
    # Ask for user-mode progress only: kernel-mode noise differs between head
    # and trail and would pollute the staggering signal. The hardware counter
    # honours this; task-clock ignores it and counts all on-CPU time.
    attr.flags = _FLAG_EXCLUDE_KERNEL | _FLAG_EXCLUDE_HV
    libc = _get_libc()
    fd = libc.syscall(nr, ctypes.byref(attr), pid, -1, -1, 0)
    if fd < 0:
        raise CounterUnavailable(_remediation(kind, ctypes.get_errno()))
    return fd


def open_counter(pid: int, kind: str) -> tuple[int, str]:
    """Attach a progress counter to pid; returns (fd, resolved kind)."""
    if kind == COUNTER_AUTO:
        try:
            return _open(pid, COUNTER_INSTRUCTIONS), COUNTER_INSTRUCTIONS
        except CounterUnavailable:
            return _open(pid, COUNTER_TASK_CLOCK), COUNTER_TASK_CLOCK
    return _open(pid, kind), kind


def read_counter(fd: int) -> int:
    """Current cumulative count; valid until the fd is closed, even after exit.

    A read shorter than the 8-byte count (an event in error state reads b"")
    raises CounterUnavailable, which the enforcement loop blames on the replica.
    """
    data = os.read(fd, 8)
    if len(data) != 8:
        raise CounterUnavailable(f"counter fd {fd} read {len(data)} bytes of an 8-byte count")
    return struct.unpack("q", data)[0]


def close_counter(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:
        pass


def probe_counter(kind: str) -> str:
    """Resolve and sanity-check a counter kind against the current process.

    Returns the concrete kind ("instructions" or "task-clock") that would be
    used, raising CounterUnavailable with remediation text otherwise.
    """
    if kind not in COUNTER_KINDS:
        raise ValueError(f"counter must be one of {COUNTER_KINDS}, got {kind!r}")
    fd, resolved = open_counter(os.getpid(), kind)
    close_counter(fd)
    return resolved
