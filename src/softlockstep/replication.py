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

The child first asks to be killed when the monitor dies, and exits if the
monitor is gone already. It then closes every descriptor it inherited but
its report pipe, stdout and stderr, and reads stdin from /dev/null: the
replicas share no open file but stdout and stderr, with each other or the
caller. It then stops itself; the parent attaches a progress counter to the
stopped child, so no wrapper instruction retires uncounted. The head is
forked, counted, pinned and started first, and runs while the trail's inputs
are copied and the trail is forked; the trail stays stopped until the
enforcement loop releases it. When the computation returns, the child writes
a one-byte done report to its pipe and sleeps, outputs in place, until the
session kills it. The monitor reads a finished replica's outputs with
process_vm_readv, the head's after freeze() has stopped it, so they cannot
change between the compare and the copy into the caller's buffers. The
session is its own loop clock: at spawn it builds a RealClock at the
config's check period over each replica's report pipe and pidfd, so the
loop also wakes at a replica's report or exit. None of the monitor's fds
takes a slot among 0-2 that the caller left closed. The session is
mechanism only: protect() checks its arguments and faults are armed around
it.

This module, with linuxperf, ctypes, mmap and signal, is the process layer:
import softlockstep does not load it, and the first monitor.protect() or
calibration.calibrate() imports it. Its setup failures, SpawnFailure and
PinningFailure, live in progress and are importable from here too.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import fcntl
import functools
import itertools
import mmap
import os
import signal
from collections.abc import Sequence

from . import linuxperf
from .core import MonitorConfig, PayloadSpec, Role, WrappedComputation
from .progress import (_SUCCESS, ExitKind, ExitStatus, PinningFailure, RealClock, SpawnFailure,
                       StaleHandle)

_PR_SET_PDEATHSIG = 1
_ERR_PIPE_LIMIT = 8192
# The done report. A failing child writes its traceback instead, and a
# traceback never starts with this byte.
_DONE = b"\0"


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


def _vm_copy(name: str, pid: int, local, local_count: int, remote_address: int,
             nbytes: int) -> None:
    """Move nbytes between local_count local iovecs and one remote range, all or nothing."""
    moved = _vm_call(name)(pid, local, local_count, _IoVec(remote_address, nbytes), 1, 0)
    if moved != nbytes:
        err = ctypes.get_errno() if moved < 0 else errno.EFAULT
        raise OSError(err, f"{name}: {os.strerror(err)}")


def _vm_read(pid: int, local_address: int, remote_address: int, nbytes: int) -> None:
    """Copy nbytes from another process's memory into ours (process_vm_readv)."""
    _vm_copy("process_vm_readv", pid, _IoVec(local_address, nbytes), 1, remote_address, nbytes)


# A Py_buffer has eleven fields, none wider than a pointer; buf comes first.
_PyBuffer = ctypes.c_void_p * 11
_get_buffer = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, _PyBuffer, ctypes.c_int)(
    ("PyObject_GetBuffer", ctypes.pythonapi)
)
_release_buffer = ctypes.PYFUNCTYPE(None, _PyBuffer)(("PyBuffer_Release", ctypes.pythonapi))


def _buffer_address(buf, writable: bool = False) -> int:
    """Start address of a C-contiguous buffer, writable if asked; no export outlives the call."""
    info = _PyBuffer()
    # PyBUF_SIMPLE, or PyBUF_WRITABLE: the kernel would write a read-only buffer regardless.
    _get_buffer(buf, info, int(writable))  # a refusal raises BufferError
    try:
        return info[0]
    finally:
        _release_buffer(info)


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
        start = _buffer_address(view)
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


class _Replica:
    def __init__(self, pid: int, output_address: int, err_read_fd: int):
        self.pid = pid
        self.output_address = output_address  # where the child holds its outputs, back to back
        self.err_read_fd = err_read_fd
        try:
            self.exit_fd = _off_stdio(os.pidfd_open(pid))  # readable once the process can be reaped
        except OSError:  # Linux < 5.3: an exit is seen at the next check
            self.exit_fd = -1
        self.counter_fd = -1
        self.done = False
        self.status: ExitStatus | None = None
        self.err = b""

    def poll_exit(self) -> ExitStatus | None:
        """SUCCESS once the done report came and the process lives, its exit status once gone."""
        if self.status is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid != 0:
                self.status = _decode_status(status)
            if not self.done:
                self._read_pipe()
        if self.status is not None:
            return self.status
        return _SUCCESS if self.done else None

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

    def kill(self) -> None:
        """SIGKILL the process unless it has been reaped."""
        if self.status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def close(self) -> None:
        """Reap the killed or exited process, close its counter and pipe."""
        if self.status is None:
            try:
                _, status = os.waitpid(self.pid, 0)
                self.status = _decode_status(status)
            except ChildProcessError:
                self.status = ExitStatus(kind=ExitKind.CRASH, code=signal.SIGKILL)
        if self.counter_fd >= 0:
            linuxperf.close_counter(self.counter_fd)
            self.counter_fd = -1
        for fd in (self.err_read_fd, self.exit_fd):
            if fd >= 0:
                os.close(fd)
        self.err_read_fd = self.exit_fd = -1


def _kill_then_reap(replicas) -> None:
    """Kill every replica before reaping any, so that their teardowns overlap."""
    for rep in replicas:
        rep.kill()
    for rep in replicas:
        rep.close()


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


def _off_stdio(fd: int) -> int:
    """fd, moved to 3 or above: in a slot of 0-2 the caller left closed, a pipe end,
    pidfd or counter fd would become a replica's stdin, stdout or stderr."""
    if fd > 2:
        return fd
    moved = fcntl.fcntl(fd, fcntl.F_DUPFD_CLOEXEC, 3)
    os.close(fd)
    return moved


def _contain_descriptors(keep: int) -> None:
    """Close every inherited fd but stdout, stderr and keep; stdin reads /dev/null.

    An inherited descriptor is a channel between the replicas: both would
    share one open file's offset, and a replica reading this or an earlier
    replica's report pipe would take its done report or traceback.
    closerange uses close_range(2) where the kernel has it; bounding it by
    the highest fd in /proc/self/fd, not by the open-file limit (a fd opened
    before the limit was lowered lies above it), keeps its close-by-close
    fallback short.
    """
    os.closerange(3, keep)
    os.closerange(max(keep + 1, 3), max(map(int, os.listdir("/proc/self/fd"))) + 1)
    null = os.open(os.devnull, os.O_RDONLY)
    if null != 0:
        os.dup2(null, 0)
        os.close(null)


def _child_main(
    computation: WrappedComputation,
    input_views: Sequence[memoryview],
    output_views: Sequence[memoryview],
    err_write_fd: int,
    monitor_pid: int,
) -> None:
    # Runs only in the forked child; must never return to the caller's frame.
    try:
        # The death signal first, then the parent check: a monitor that died
        # before the signal was set has left this child to another parent,
        # and a stopped orphan would never be killed.
        _set_pdeathsig()
        if os.getppid() != monitor_pid:
            os._exit(1)
        _contain_descriptors(err_write_fd)
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
        # Imported only on failure; whatever the import or the write raises,
        # the child still exits here.
        try:
            import traceback
            os.write(err_write_fd, traceback.format_exc().encode()[:_ERR_PIPE_LIMIT])
        finally:
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
        self._transfer("process_vm_readv", index, offset, dest)

    def flip_bit(self, index: int, offset: int, bit_index: int) -> None:
        byte = bytearray(1)
        self.read_into(index, offset, byte)
        byte[0] ^= 1 << bit_index
        self._transfer("process_vm_writev", index, offset, byte)

    def read_all_into(self, dests: Sequence) -> None:
        """Fill one writable buffer per output, of its size, in one process_vm_readv.

        One local iovec per buffer, IOV_MAX (core.MAX_OUTPUTS) at most, and
        one remote iovec over the outputs, which lie back to back. The kernel
        holds the replica's memory for the whole read: a replica killed
        meanwhile leaves the buffers untouched (ReplicaLost) or is read in full.
        """
        views = [memoryview(buf) for buf in dests]
        try:
            if [view.nbytes for view in views] != list(self.sizes):
                raise ValueError(f"buffers do not match outputs of {self.sizes} bytes")
            local = (_IoVec * len(views))(
                *[(_buffer_address(v, writable=True), v.nbytes) for v in views])
            self._call("process_vm_readv", local, len(views), self._starts[0], sum(self.sizes))
        finally:
            for view in views:
                view.release()

    def _transfer(self, name: str, index: int, offset: int, buf) -> None:
        nbytes = len(buf)
        if not 0 <= offset <= offset + nbytes <= self.sizes[index]:
            raise ValueError(f"bytes {offset}..{offset + nbytes} outside output {index}")
        if nbytes:
            address = _buffer_address(buf, writable=True)
            self._call(name, _IoVec(address, nbytes), 1, self._starts[index] + offset, nbytes)

    def _call(self, name: str, local, local_count: int, remote_address: int, nbytes: int) -> None:
        try:
            _vm_copy(name, self.pid, local, local_count, remote_address, nbytes)
        except OSError as exc:
            raise ReplicaLost(
                self.role, "crash", f"{self.role.value} replica's outputs are gone: {exc}"
            ) from exc


class ReplicaSession:
    """Both replicas of one protected run, plus their counters.

    The session is the ProgressSource over its live processes, backed by
    perf counters and job-control signals. read_count never decreases,
    requires no cooperation from the replica, and stays frozen while the
    replica is stopped or finished. Counts remain readable after the replica
    exits (the counter fd outlives the process). It waits and stamps through
    a RealClock at check_period_us that wakes on its replicas' news.
    """

    def __init__(self, payload: PayloadSpec, counter_kind: str, check_period_us: int,
                 _replicas: dict[Role, _Replica]):
        self.payload = payload
        self.counter_kind = counter_kind
        self.backend = f"process/{counter_kind}"
        self._replicas = _replicas
        # Each replica's report pipe turns readable with a done report, a
        # traceback or end of file, and its pidfd once it can be reaped.
        self._clock = RealClock(check_period_us, [
            fd for rep in _replicas.values() for fd in (rep.err_read_fd, rep.exit_fd) if fd >= 0])
        self.released = False

    def _replica(self, role: Role) -> _Replica:
        try:
            return self._replicas[role]
        except KeyError:  # release() empties the session
            raise StaleHandle(f"no live {role!r} replica: session released") from None

    def pid(self, role: Role) -> int:
        return self._replica(role).pid

    def read_count(self, role: Role) -> int:
        return linuxperf.read_counter(self._replica(role).counter_fd)

    def wait_one_period(self) -> None:
        self._clock.wait_one_period()

    def now_ns(self) -> int:
        return self._clock.now_ns()

    def _signal(self, role: Role, signum: int) -> None:
        rep = self._replica(role)
        # A finished replica sleeps until release() and is left alone;
        # signalling a zombie is harmless.
        if rep.status is None and not rep.done:
            try:
                os.kill(rep.pid, signum)
            except ProcessLookupError:
                pass

    def suspend(self, role: Role) -> None:
        self._signal(role, signal.SIGSTOP)

    def resume(self, role: Role) -> None:
        self._signal(role, signal.SIGCONT)

    def exit_status(self, role: Role) -> ExitStatus | None:
        return self._replica(role).poll_exit()

    def failure_detail(self, role: Role) -> str:
        """What the replica wrote before failing: its traceback, or ''."""
        return self._replica(role).err.decode("utf-8", "replace")

    def kill_replica(self, role: Role, wait: bool = True) -> None:
        """SIGKILL one replica, which is then reported as a crash.

        With wait, return once it is dead but not yet reaped, so the next
        exit_status is the crash whatever the replica reported before (fault
        injection). Without, its teardown runs on beside the caller; release()
        reaps it.
        """
        rep = self._replica(role)
        rep.kill()
        if wait and rep.status is None:
            os.waitid(os.P_PID, rep.pid, os.WEXITED | os.WNOWAIT)

    def freeze(self, role: Role) -> None:
        """SIGSTOP one replica and return once the stop is reported, or it has died.

        A reported stop means every thread of the replica has stopped, so a
        finished replica's outputs cannot change until it is killed;
        outputs() reports one that died instead.
        """
        rep = self._replica(role)
        if rep.status is None:
            os.kill(rep.pid, signal.SIGSTOP)
            os.waitid(os.P_PID, rep.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)

    def outputs(self, role: Role) -> ReplicaOutputs:
        """One finished replica's outputs in place.

        Raises ReplicaIncomplete while the replica runs, and ReplicaLost once
        it has failed or died.
        """
        rep = self._replica(role)
        status = rep.poll_exit()
        if status is None:
            raise ReplicaIncomplete(f"{role.value} replica still running")
        if not status.success:
            raise ReplicaLost(role, status.failure_cause, f"{role.value} replica failed "
                              f"({status.failure_cause}): {self.failure_detail(role)}")
        return ReplicaOutputs(role, rep.pid, rep.output_address, self.payload.output_sizes)

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
        """Kill both replicas, then reap and detach them; safe to call twice."""
        if self.released:
            return
        self.released = True
        _kill_then_reap(self._replicas.values())
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
    input_address = _buffer_address(input_region)
    try:
        err_read, err_write = map(_off_stdio, os.pipe())
        os.set_blocking(err_read, False)
        monitor_pid = os.getpid()
        try:
            pid = os.fork()
        except BaseException:
            os.close(err_read)
            os.close(err_write)
            raise
        if pid == 0:
            _child_main(computation, input_views, output_views, err_write, monitor_pid)
            os._exit(1)  # unreachable
        os.close(err_write)
        rep = _Replica(
            pid=pid,
            output_address=_buffer_address(output_region),
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
        rep.status = _decode_status(status)
        rep._read_pipe()
        detail = rep.err.decode("utf-8", "replace") or str(rep.status)
        rep.close()
        raise SpawnFailure(f"{role.value} replica died before starting: {detail}")
    # Outputs are read back with process_vm_readv: if the kernel refuses it
    # (Yama ptrace_scope 3, a seccomp filter), fail now rather than after
    # the run. The input copy is already populated, so the read faults
    # nothing in.
    probe = bytearray(1)
    try:
        _vm_read(pid, _buffer_address(probe, writable=True), input_address, 1)
    except OSError as exc:
        _kill_then_reap([rep])
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
    """Create head and trail on private data copies, each counted from its first instruction.

    The head is forked, counted, pinned and started before the trail's
    inputs are copied and it is forked, so the head runs while the trail is
    built. The trail is returned stopped: the enforcement loop releases it.
    config and payload are taken as checked: protect() refuses bad ones before any fork.
    """
    counter_kind = linuxperf.probe_counter(counter)

    replicas: dict[Role, _Replica] = {}
    try:
        for role, core in ((Role.HEAD, config.head_core), (Role.TRAIL, config.trail_core)):
            rep = replicas[role] = _spawn_one(computation, payload, role)
            rep.counter_fd = _off_stdio(linuxperf.open_counter(rep.pid, counter_kind)[0])
            _pin(rep.pid, f"{role.value} replica", core)
            if role is Role.HEAD:
                os.kill(rep.pid, signal.SIGCONT)
        return ReplicaSession(payload, counter_kind, config.check_period_us, replicas)
    except BaseException:
        _kill_then_reap(replicas.values())
        raise


def _pin(pid: int, who: str, core: int | None) -> None:
    """Pin a process (0: this one) to one core, or raise PinningFailure naming who."""
    if core is None:
        return
    try:
        os.sched_setaffinity(pid, {core})
    except (OSError, ValueError) as exc:
        raise PinningFailure(f"cannot pin {who} to core {core}: {exc}") from exc
