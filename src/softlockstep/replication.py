"""Replica process creation with private input/output copies.

Each replica gets two mappings of its own, built in the controlling process
before fork: a private anonymous mapping holding one copy of every input,
taken straight from the caller's buffers and advised onto transparent huge
pages, and a shared anonymous mapping of zeroed output regions. The child
stops itself immediately after birth; the parent attaches a progress counter
to the stopped child, so no wrapper instruction retires uncounted, and the
trail stays stopped until the enforcement loop releases it.

Once a child has stopped, the controlling process unmaps its input copy (the
child keeps the only mapping of it) and marks its output mapping
MADV_DONTFORK, so the next replica is forked without either: head and trail
never map each other's memory, and the two input copies are built
separately from the caller's buffers, never one from the other. The monitor
keeps the output mappings to compare them in place.
"""

from __future__ import annotations

import mmap
import os
import signal
import traceback
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from . import linuxperf
from .core import MonitorConfig, PayloadSpec, Role, validate_config
from .progress import ExitKind, ExitStatus, ReplicaHandle, StaleHandle

# A wrapped computation reads only the given input views, writes only the
# given output views, and is deterministic in them. Returning False signals
# an application-detected failure (maps to a nonzero exit).
WrappedComputation = Callable[[Sequence[memoryview], Sequence[memoryview]], object]

_PR_SET_PDEATHSIG = 1
_ERR_PIPE_LIMIT = 8192


class SpawnFailure(RuntimeError):
    """A replica could not be brought to the stopped-and-counted state."""


class PinningFailure(RuntimeError):
    """A requested core affinity could not be applied."""


class ReplicaIncomplete(RuntimeError):
    """Outputs were requested from a replica that has not terminated."""


@dataclass
class _Replica:
    handle: ReplicaHandle
    pid: int
    region: mmap.mmap
    output_views: list[memoryview]
    err_read_fd: int
    counter_fd: int = -1
    suspended: bool = False
    exit_status: ExitStatus | None = None
    err_text: str = ""
    pending_bitflips: list[tuple[int, int, int]] = field(default_factory=list)

    def poll_exit(self) -> ExitStatus | None:
        if self.exit_status is not None:
            return self.exit_status
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid == 0:
            return None
        self.exit_status = _decode_status(status)
        self._drain_err()
        return self.exit_status

    def reap(self) -> ExitStatus:
        if self.exit_status is None:
            _, status = os.waitpid(self.pid, 0)
            self.exit_status = _decode_status(status)
            self._drain_err()
        return self.exit_status

    def _drain_err(self) -> None:
        chunks = []
        while True:
            try:
                chunk = os.read(self.err_read_fd, 4096)
            except (BlockingIOError, OSError):
                break
            if not chunk:
                break
            chunks.append(chunk)
        if chunks:
            self.err_text = b"".join(chunks).decode("utf-8", "replace")

    def close(self) -> None:
        """Kill and reap the process, close its counter and pipe, unmap its region."""
        if self.exit_status is None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                self.reap()
            except ChildProcessError:
                self.exit_status = ExitStatus(kind=ExitKind.CRASH, code=signal.SIGKILL)
        if self.counter_fd >= 0:
            linuxperf.close_counter(self.counter_fd)
            self.counter_fd = -1
        # Every view must go before the mapping: close() refuses while any
        # export of the region is outstanding.
        for view in self.output_views:
            view.release()
        self.region.close()
        if self.err_read_fd >= 0:
            os.close(self.err_read_fd)
            self.err_read_fd = -1


def _decode_status(status: int) -> ExitStatus:
    if os.WIFEXITED(status):
        code = os.WEXITSTATUS(status)
        kind = ExitKind.SUCCESS if code == 0 else ExitKind.NONZERO_EXIT
        return ExitStatus(kind=kind, code=code)
    if os.WIFSIGNALED(status):
        return ExitStatus(kind=ExitKind.CRASH, code=os.WTERMSIG(status))
    # Stopped states never reach here: polling uses WNOHANG without WUNTRACED.
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
        ok = computation(input_views, output_views)
        os._exit(0 if ok is not False else 1)
    except BaseException:
        try:
            os.write(err_write_fd, traceback.format_exc().encode()[:_ERR_PIPE_LIMIT])
        except OSError:
            pass
        os._exit(1)


class ProcessProgressSource:
    """Progress source backed by perf counters and job-control signals.

    read_count never decreases, requires no cooperation from the replica,
    and stays frozen while the replica is stopped. Counts remain readable
    after the replica exits (the counter fd outlives the process).
    """

    def __init__(self, replicas: dict[Role, _Replica]):
        # The session's own dict, emptied on release; holding the session
        # itself would keep it (and its payload copy) alive in a cycle.
        self._replicas = replicas

    def _replica(self, handle: ReplicaHandle) -> _Replica:
        rep = self._replicas.get(handle.role)
        if rep is None or rep.handle.replica_id != handle.replica_id:
            raise StaleHandle(f"handle {handle.replica_id} does not belong to a live session")
        return rep

    def read_count(self, handle: ReplicaHandle) -> int:
        return linuxperf.read_counter(self._replica(handle).counter_fd)

    def suspend(self, handle: ReplicaHandle) -> None:
        rep = self._replica(handle)
        if rep.exit_status is None:
            # Harmless on an already-stopped or zombie process.
            try:
                os.kill(rep.pid, signal.SIGSTOP)
            except ProcessLookupError:
                pass
        rep.suspended = True

    def resume(self, handle: ReplicaHandle) -> None:
        rep = self._replica(handle)
        if rep.exit_status is None:
            try:
                os.kill(rep.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
        rep.suspended = False

    def is_terminated(self, handle: ReplicaHandle) -> tuple[bool, ExitStatus | None]:
        status = self._replica(handle).poll_exit()
        return (status is not None), status


@dataclass
class ReplicaSession:
    """Both replicas of one protected run, plus their counters and regions."""

    payload: PayloadSpec
    counter_kind: str
    _replicas: dict[Role, _Replica]
    released: bool = False

    def __post_init__(self) -> None:
        self.progress_source = ProcessProgressSource(self._replicas)

    def handle(self, role: Role) -> ReplicaHandle:
        self._check_live()
        return self._replicas[role].handle

    def pid(self, role: Role) -> int:
        self._check_live()
        return self._replicas[role].pid

    def _check_live(self) -> None:
        if self.released:
            raise StaleHandle("session already released")

    def failure_detail(self, role: Role) -> str:
        self._check_live()
        return self._replicas[role].err_text

    def kill_replica(self, role: Role) -> None:
        """Forcibly crash one replica (fault injection support)."""
        self._check_live()
        rep = self._replicas[role]
        if rep.exit_status is None:
            try:
                os.kill(rep.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def register_bitflip(self, role: Role, output_index: int, byte_offset: int, bit_index: int) -> None:
        """Corrupt one output bit after the replica terminates, before collection."""
        self._check_live()
        sizes = self.payload.output_sizes
        if not 0 <= output_index < len(sizes):
            raise ValueError(f"output index {output_index} out of range")
        if not 0 <= byte_offset < sizes[output_index]:
            raise ValueError(f"byte offset {byte_offset} out of range for output {output_index}")
        if not 0 <= bit_index < 8:
            raise ValueError(f"bit index {bit_index} out of range")
        self._replicas[role].pending_bitflips.append((output_index, byte_offset, bit_index))

    def output_views(self, role: Role) -> list[memoryview]:
        """One replica's output regions in place, with pending bit flips applied.

        The replica must have exited 0. The views are valid until release(),
        which refuses (BufferError) while anything still exports them.
        """
        self._check_live()
        rep = self._replicas[role]
        status = rep.poll_exit()
        if status is None:
            raise ReplicaIncomplete(f"{role.value} replica still running")
        if not status.success:
            raise ReplicaIncomplete(
                f"{role.value} replica failed ({status.failure_cause}): {rep.err_text}"
            )
        for output_index, byte_offset, bit_index in rep.pending_bitflips:
            view = rep.output_views[output_index]
            view[byte_offset] ^= 1 << bit_index
        rep.pending_bitflips.clear()
        return list(rep.output_views)

    def collect_outputs(self, role: Role) -> list[bytes]:
        """Copies of one replica's output regions that outlive the session."""
        return [bytes(view) for view in self.output_views(role)]

    def release(self) -> None:
        """Kill, reap, detach and unmap everything; safe to call twice."""
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
    region = mmap.mmap(
        -1, max(payload.total_input_bytes, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    )
    try:
        # 512 first-touch faults per 2 MiB become one; the child inherits
        # the populated page tables of a private mapping and faults no more.
        region.madvise(mmap.MADV_HUGEPAGE)
    except OSError:
        pass  # a kernel without transparent huge pages: plain pages work too
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
    try:
        # Shared, so the monitor can read the outputs after the child exits;
        # fresh anonymous pages are already zero-filled.
        region = mmap.mmap(
            -1, max(payload.total_output_bytes, 1), flags=mmap.MAP_SHARED | mmap.MAP_ANONYMOUS
        )
        output_views = _carve(region, payload.output_sizes)
        err_read, err_write = os.pipe()
        os.set_blocking(err_read, False)
        pid = os.fork()
        if pid == 0:
            os.close(err_read)
            _child_main(computation, input_views, output_views, err_write)
            os._exit(1)  # unreachable
        os.close(err_write)
        rep = _Replica(
            handle=ReplicaHandle.fresh(role, ref=pid),
            pid=pid,
            region=region,
            output_views=output_views,
            err_read_fd=err_read,
            suspended=True,
        )
        # Wait for the self-stop; an exit here means the child died pre-wrapper.
        _, status = os.waitpid(pid, os.WUNTRACED)
    finally:
        # From here on the child holds the only mapping of its input copy.
        for view in input_views:
            view.release()
        input_region.close()
    if not os.WIFSTOPPED(status):
        rep.exit_status = _decode_status(status)
        rep._drain_err()
        detail = rep.err_text or str(rep.exit_status)
        rep.close()
        raise SpawnFailure(f"{role.value} replica died before starting: {detail}")
    # No later fork may inherit this replica's outputs.
    region.madvise(mmap.MADV_DONTFORK)
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
        session.progress_source.resume(session.handle(Role.HEAD))
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

