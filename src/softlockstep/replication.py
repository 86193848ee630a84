"""Replica process creation with private input/output copies.

Each replica gets two private anonymous mappings of its own, built in the
controlling process just before its fork and advised onto transparent huge
pages: one holds a copy of every input, taken straight from the caller's
buffers, the other its zeroed outputs. The controlling process unmaps both
right after the fork, so the child holds the only mapping of each: head and
trail never map each other's memory, no other process maps a replica's
outputs (the monitor neither), and the two input copies are built separately
from the caller's buffers, never one from the other. The caller keeps the
pages lying wholly inside its buffers out of both forks (kept_from_forks), so
a replica reaches the caller's data only through its own copies, and writing
those pages later takes no copy-on-write fault.

The child stops itself immediately after birth; the parent attaches a
progress counter to the stopped child, so no wrapper instruction retires
uncounted, and the trail stays stopped until the enforcement loop releases
it. When the computation returns, the child writes a one-byte done report to
its pipe and sleeps, outputs in place, until the session kills it. The
monitor reads a finished replica's outputs with process_vm_readv.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import itertools
import mmap
import os
import signal
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import linuxperf
from .core import MonitorConfig, PayloadSpec, Role, validate_config
from .progress import ExitKind, ExitStatus, StaleHandle

# A wrapped computation reads only the given input views, writes only the
# given output views, and is deterministic in them. Returning False signals
# an application-detected failure (maps to a nonzero exit).
WrappedComputation = Callable[[Sequence[memoryview], Sequence[memoryview]], object]

_PR_SET_PDEATHSIG = 1
_ERR_PIPE_LIMIT = 8192
# The done report. A failing child writes its traceback instead, and a
# traceback never starts with this byte.
_DONE = b"\0"
_DONE_STATUS = ExitStatus(kind=ExitKind.SUCCESS)


class SpawnFailure(RuntimeError):
    """A replica could not be brought to the stopped-and-counted state."""


class PinningFailure(RuntimeError):
    """A requested core affinity could not be applied."""


class ReplicaIncomplete(RuntimeError):
    """Outputs were requested from a replica that has not finished."""


class ReplicaLost(ReplicaIncomplete):
    """A replica failed, or died after its done report, before its outputs were read."""

    def __init__(self, role: Role, cause: str, message: str):
        super().__init__(message)
        self.role = role
        self.cause = cause


class _IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


@functools.cache
def _vm_call(name: str):
    fn = getattr(linuxperf._get_libc(), name)
    iov = ctypes.POINTER(_IoVec)
    fn.argtypes = (ctypes.c_int, iov, ctypes.c_ulong, iov, ctypes.c_ulong, ctypes.c_ulong)
    fn.restype = ctypes.c_ssize_t
    return fn


def _vm_copy(name: str, pid: int, local_address: int, remote_address: int, nbytes: int) -> None:
    moved = _vm_call(name)(
        pid, _IoVec(local_address, nbytes), 1, _IoVec(remote_address, nbytes), 1, 0
    )
    if moved != nbytes:
        err = ctypes.get_errno() if moved < 0 else errno.EFAULT
        raise OSError(err, f"{name}: {os.strerror(err)}")


def _vm_read(pid: int, local_address: int, remote_address: int, nbytes: int) -> None:
    """Copy nbytes from another process's memory into ours (process_vm_readv)."""
    _vm_copy("process_vm_readv", pid, local_address, remote_address, nbytes)


def _vm_write(pid: int, local_address: int, remote_address: int, nbytes: int) -> None:
    """Copy nbytes from our memory into another process's (process_vm_writev)."""
    _vm_copy("process_vm_writev", pid, local_address, remote_address, nbytes)


def _address(buf) -> int:
    """Start address of a writable, non-empty buffer; no export outlives the call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


def huge_page_mapping(size: int) -> mmap.mmap:
    """A zero-filled private anonymous mapping advised onto transparent huge pages."""
    region = mmap.mmap(-1, max(size, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    try:
        # 512 first-touch faults per 2 MiB become one.
        region.madvise(mmap.MADV_HUGEPAGE)
    except OSError:
        pass  # a kernel without transparent huge pages: plain pages work too
    return region


def _madvise(start: int, length: int, advice: int) -> bool:
    libc = linuxperf._get_libc()
    return libc.madvise(ctypes.c_void_p(start), ctypes.c_size_t(length), advice) == 0


def _whole_pages(buf) -> tuple[int, int]:
    """Start and length of the pages lying wholly inside a C-contiguous buffer.

    A partly covered first or last page may hold an allocator header or a
    neighbouring object, so it is left out; (0, 0) when no page is whole.
    """
    with memoryview(buf) as view:
        if not view.c_contiguous or view.nbytes < mmap.PAGESIZE:
            return 0, 0
        start = np.frombuffer(view.cast("B"), dtype=np.uint8).ctypes.data
        end = (start + view.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    first = -(-start // mmap.PAGESIZE) * mmap.PAGESIZE
    return first, max(end - first, 0)


@contextlib.contextmanager
def kept_from_forks(buffers):
    """No fork inside the block inherits the whole pages of these buffers.

    A fork write-protects every private page it shares with its child, and
    the parent's first write to each page afterwards faults. Pages marked
    MADV_DONTFORK are neither shared nor write-protected; on exit they are
    marked MADV_DOFORK again. A range the kernel refuses to advise is
    inherited copy-on-write as before. Advising a page twice is harmless.
    """
    advised: list[tuple[int, int]] = []
    try:
        for buf in buffers:
            start, length = _whole_pages(buf)
            if length and _madvise(start, length, mmap.MADV_DONTFORK):
                advised.append((start, length))
        yield
    finally:
        for start, length in advised:
            _madvise(start, length, mmap.MADV_DOFORK)


@dataclass
class _Replica:
    pid: int
    output_address: int  # where the child holds its outputs, back to back
    err_read_fd: int
    counter_fd: int = -1
    done: bool = False
    exit_status: ExitStatus | None = None
    err: bytes = b""
    pending_bitflips: list[tuple[int, int, int]] = field(default_factory=list)

    def poll_exit(self) -> ExitStatus | None:
        """SUCCESS once the done report came and the process lives, its exit status once gone."""
        if self.exit_status is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid != 0:
                self.exit_status = _decode_status(status)
            if not self.done:
                self._read_pipe()
        if self.exit_status is not None:
            return self.exit_status
        return _DONE_STATUS if self.done else None

    def _read_pipe(self) -> None:
        """Take what the child wrote: its done report, or (part of) its traceback."""
        while True:
            try:
                chunk = os.read(self.err_read_fd, 4096)
            except OSError:  # BlockingIOError: nothing written yet
                return
            if not chunk:
                return
            if chunk == _DONE and not self.err:
                self.done = True
            else:
                self.err += chunk

    def close(self) -> None:
        """Kill and reap the process, close its counter and pipe."""
        if self.exit_status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                _, status = os.waitpid(self.pid, 0)
                self.exit_status = _decode_status(status)
            except ChildProcessError:
                self.exit_status = ExitStatus(kind=ExitKind.CRASH, code=signal.SIGKILL)
        if self.counter_fd >= 0:
            linuxperf.close_counter(self.counter_fd)
            self.counter_fd = -1
        if self.err_read_fd >= 0:
            os.close(self.err_read_fd)
            self.err_read_fd = -1


def _decode_status(status: int) -> ExitStatus:
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) != 0:
        return ExitStatus(kind=ExitKind.NONZERO_EXIT, code=os.WEXITSTATUS(status))
    if os.WIFSIGNALED(status):
        return ExitStatus(kind=ExitKind.CRASH, code=os.WTERMSIG(status))
    # A finished replica reports on its pipe and never exits by itself, so
    # even an exit with code 0 came before its outputs did. Stopped states
    # never reach here: polling uses WNOHANG without WUNTRACED.
    return ExitStatus(kind=ExitKind.CRASH, code=0)


def _set_pdeathsig() -> None:
    try:
        libc = linuxperf._get_libc()
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except Exception:
        pass


def _child_main(
    computation: WrappedComputation,
    input_views: Sequence[memoryview],
    output_views: Sequence[memoryview],
    err_write_fd: int,
) -> None:
    # Runs only in the forked child; must never return to the caller's frame.
    try:
        _set_pdeathsig()
        # Stop before retiring any wrapper instruction; the parent attaches
        # the counter and decides when this replica starts.
        signal.raise_signal(signal.SIGSTOP)
        if computation(input_views, output_views) is False:
            os._exit(1)
        os.write(err_write_fd, _DONE)
        # The outputs live only here: sleep until the monitor has read them
        # and release() kills this process.
        while True:
            signal.pause()
    except BaseException:
        try:
            os.write(err_write_fd, traceback.format_exc().encode()[:_ERR_PIPE_LIMIT])
        except OSError:
            pass
        os._exit(1)


class ReplicaOutputs:
    """A finished replica's outputs, reached in place with process_vm_readv/writev.

    Valid until the session is released. A transfer the kernel refuses,
    because the replica has died or unmapped its outputs, raises ReplicaLost.
    """

    def __init__(self, role: Role, pid: int, address: int, sizes: Sequence[int]):
        self.role = role
        self.pid = pid
        self.sizes = tuple(sizes)
        self._starts = [address + s for s in itertools.accumulate(self.sizes[:-1], initial=0)]

    def read_into(self, index: int, offset: int, dest) -> None:
        """Fill dest, a writable byte buffer, from output index at byte offset."""
        self._transfer(_vm_read, index, offset, dest)

    def flip_bit(self, index: int, offset: int, bit_index: int) -> None:
        byte = bytearray(1)
        self.read_into(index, offset, byte)
        byte[0] ^= 1 << bit_index
        self._transfer(_vm_write, index, offset, byte)

    def _transfer(self, call, index: int, offset: int, buf) -> None:
        nbytes = len(buf)
        if not 0 <= offset <= offset + nbytes <= self.sizes[index]:
            raise ValueError(f"bytes {offset}..{offset + nbytes} outside output {index}")
        if nbytes == 0:
            return
        try:
            call(self.pid, _address(buf), self._starts[index] + offset, nbytes)
        except OSError as exc:
            raise ReplicaLost(
                self.role, "crash", f"{self.role.value} replica's outputs are gone: {exc}"
            ) from exc


@dataclass
class ReplicaSession:
    """Both replicas of one protected run, plus their counters.

    The session is the ProgressSource over its live processes, backed by
    perf counters and job-control signals. read_count never decreases,
    requires no cooperation from the replica, and stays frozen while the
    replica is stopped or finished. Counts remain readable after the replica
    exits (the counter fd outlives the process).
    """

    payload: PayloadSpec
    counter_kind: str
    _replicas: dict[Role, _Replica]
    released: bool = False

    def _replica(self, role: Role) -> _Replica:
        try:
            return self._replicas[role]
        except KeyError:  # release() empties the session
            raise StaleHandle(f"no live {role!r} replica: session released") from None

    def pid(self, role: Role) -> int:
        return self._replica(role).pid

    def read_count(self, role: Role) -> int:
        return linuxperf.read_counter(self._replica(role).counter_fd)

    def _signal(self, role: Role, signum: int) -> None:
        rep = self._replica(role)
        # A finished replica sleeps until release() and is left alone;
        # signalling a zombie is harmless.
        if rep.exit_status is None and not rep.done:
            try:
                os.kill(rep.pid, signum)
            except ProcessLookupError:
                pass

    def suspend(self, role: Role) -> None:
        self._signal(role, signal.SIGSTOP)

    def resume(self, role: Role) -> None:
        self._signal(role, signal.SIGCONT)

    def is_terminated(self, role: Role) -> tuple[bool, ExitStatus | None]:
        status = self._replica(role).poll_exit()
        return (status is not None), status

    def failure_detail(self, role: Role) -> str:
        """What the replica wrote before failing: its traceback, or ''."""
        return self._replica(role).err.decode("utf-8", "replace")

    def kill_replica(self, role: Role) -> None:
        """Forcibly crash one replica (fault injection support)."""
        rep = self._replica(role)
        if rep.exit_status is None:
            try:
                os.kill(rep.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def register_bitflip(self, role: Role, output_index: int, byte_offset: int, bit_index: int) -> None:
        """Corrupt one output bit after the replica finishes, before its outputs are read."""
        rep = self._replica(role)
        sizes = self.payload.output_sizes
        if not 0 <= output_index < len(sizes):
            raise ValueError(f"output index {output_index} out of range")
        if not 0 <= byte_offset < sizes[output_index]:
            raise ValueError(f"byte offset {byte_offset} out of range for output {output_index}")
        if not 0 <= bit_index < 8:
            raise ValueError(f"bit index {bit_index} out of range")
        rep.pending_bitflips.append((output_index, byte_offset, bit_index))

    def outputs(self, role: Role) -> ReplicaOutputs:
        """One finished replica's outputs in place, with pending bit flips applied.

        Raises ReplicaIncomplete while the replica runs, and ReplicaLost once
        it has failed or died.
        """
        rep = self._replica(role)
        status = rep.poll_exit()
        if status is None:
            raise ReplicaIncomplete(f"{role.value} replica still running")
        if not status.success:
            detail = rep.err.decode("utf-8", "replace")
            raise ReplicaLost(
                role, status.failure_cause,
                f"{role.value} replica failed ({status.failure_cause}): {detail}",
            )
        outputs = ReplicaOutputs(role, rep.pid, rep.output_address, self.payload.output_sizes)
        for output_index, byte_offset, bit_index in rep.pending_bitflips:
            outputs.flip_bit(output_index, byte_offset, bit_index)
        rep.pending_bitflips.clear()
        return outputs

    def collect_outputs(self, role: Role) -> list[bytes]:
        """Copies of one finished replica's outputs that outlive the session."""
        outputs = self.outputs(role)
        copies = []
        for index, size in enumerate(outputs.sizes):
            buf = bytearray(size)
            outputs.read_into(index, 0, buf)
            copies.append(bytes(buf))
        return copies

    def release(self) -> None:
        """Kill, reap and detach both replicas; safe to call twice."""
        if self.released:
            return
        self.released = True
        for rep in self._replicas.values():
            rep.close()
        self._replicas.clear()

    def __enter__(self) -> "ReplicaSession":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def _carve(region: mmap.mmap, sizes: Sequence[int]) -> list[memoryview]:
    base = memoryview(region)
    offset = 0
    views: list[memoryview] = []
    for size in sizes:
        views.append(base[offset : offset + size])
        offset += size
    base.release()
    return views


def _copy_inputs(payload: PayloadSpec) -> tuple[mmap.mmap, list[memoryview]]:
    """One replica's private copy of every input, one memcpy from the caller's buffer each."""
    # The child inherits the populated page tables of a private mapping and
    # faults no more.
    region = huge_page_mapping(payload.total_input_bytes)
    views = _carve(region, payload.input_sizes)
    for view, buf in zip(views, payload.inputs):
        view[:] = buf
    return region, [view.toreadonly() for view in views]


def _spawn_one(
    computation: WrappedComputation,
    payload: PayloadSpec,
    role: Role,
) -> _Replica:
    input_region, input_views = _copy_inputs(payload)
    output_region = huge_page_mapping(payload.total_output_bytes)
    output_views = _carve(output_region, payload.output_sizes)
    input_address = _address(input_region)
    try:
        err_read, err_write = os.pipe()
        os.set_blocking(err_read, False)
        try:
            pid = os.fork()
        except BaseException:
            os.close(err_read)
            os.close(err_write)
            raise
        if pid == 0:
            os.close(err_read)
            _child_main(computation, input_views, output_views, err_write)
            os._exit(1)  # unreachable
        os.close(err_write)
        rep = _Replica(
            pid=pid,
            output_address=_address(output_region),
            err_read_fd=err_read,
        )
    finally:
        # From here on the child holds the only mapping of its inputs and
        # outputs, and no later fork inherits either.
        for view in input_views + output_views:
            view.release()
        input_region.close()
        output_region.close()
    # Wait for the self-stop; an exit here means the child died pre-wrapper.
    _, status = os.waitpid(pid, os.WUNTRACED)
    if not os.WIFSTOPPED(status):
        rep.exit_status = _decode_status(status)
        rep._read_pipe()
        detail = rep.err.decode("utf-8", "replace") or str(rep.exit_status)
        rep.close()
        raise SpawnFailure(f"{role.value} replica died before starting: {detail}")
    # Outputs are read back with process_vm_readv: if the kernel refuses it
    # (Yama ptrace_scope 3, a seccomp filter), fail now rather than after
    # the run. The input copy is already populated, so the read faults
    # nothing in.
    probe = bytearray(1)
    try:
        _vm_read(pid, _address(probe), input_address, 1)
    except OSError as exc:
        rep.close()
        name = errno.errorcode.get(exc.errno, str(exc.errno))
        raise SpawnFailure(
            f"process_vm_readv of the stopped {role.value} replica failed with {name} "
            f"({os.strerror(exc.errno)}): its outputs could not be read back"
        ) from exc
    return rep


def spawn_replicas(
    computation: WrappedComputation,
    payload: PayloadSpec,
    config: MonitorConfig,
    counter: str = linuxperf.COUNTER_AUTO,
) -> ReplicaSession:
    """Create head and trail, both stopped, counted, on private data copies."""
    problems = validate_config(config) + payload.validate()
    if problems:
        raise ValueError("; ".join(problems))
    counter_kind = linuxperf.probe_counter(counter)

    replicas: dict[Role, _Replica] = {}
    try:
        for role in (Role.HEAD, Role.TRAIL):
            replicas[role] = _spawn_one(computation, payload, role)
        for role, rep in replicas.items():
            rep.counter_fd, _ = linuxperf.open_counter(rep.pid, counter_kind)
        _apply_pinning(replicas, config)
        session = ReplicaSession(payload=payload, counter_kind=counter_kind, _replicas=replicas)
        # Only the head starts; the trail is released by the enforcement loop.
        session.resume(Role.HEAD)
        return session
    except BaseException:
        for rep in replicas.values():
            rep.close()
        raise


def _apply_pinning(replicas: dict[Role, _Replica], config: MonitorConfig) -> None:
    for role, core in ((Role.HEAD, config.head_core), (Role.TRAIL, config.trail_core)):
        if core is None:
            continue
        try:
            os.sched_setaffinity(replicas[role].pid, {core})
        except (OSError, ValueError) as exc:
            raise PinningFailure(f"cannot pin {role.value} replica to core {core}: {exc}") from exc
