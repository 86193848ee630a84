"""OS-process replicas: spawning, isolation, counters, failure reporting.

These tests fork real processes and attach real progress counters; they skip
only if the host offers no usable counter at all.
"""

import contextlib
import errno
import functools
import os
import resource
import signal
import sys
import time

import pytest

from softlockstep import linuxperf, replication
from softlockstep.core import MonitorConfig, PayloadSpec, Role
from softlockstep.progress import CounterUnavailable, ExitKind, StaleHandle
from softlockstep.replication import (
    PinningFailure,
    ReplicaIncomplete,
    SpawnFailure,
    spawn_replicas,
)

try:
    linuxperf.probe_counter("auto")
except CounterUnavailable as exc:
    pytest.skip(f"no progress counter on this host: {exc}", allow_module_level=True)

CONFIG = MonitorConfig(threshold_instructions=10_000)


def double_bytes(inputs, outputs):
    data = bytes(inputs[0])
    outputs[0][:] = bytes((b * 2) & 0xFF for b in data)


def concat_then_len(inputs, outputs):
    joined = bytes(inputs[0]) + bytes(inputs[1])
    outputs[0][:] = joined
    outputs[1][:] = len(joined).to_bytes(8, "little")


def fill_pattern(inputs, outputs):
    outputs[0][:] = b"\xab" * len(outputs[0])


def boom(inputs, outputs):
    raise RuntimeError("wrapper exploded")


def boom_without_traceback(inputs, outputs):
    sys.modules["traceback"] = None  # in the replica only: the failure report's import fails
    raise RuntimeError("wrapper exploded")


def report_failure(inputs, outputs):
    return False


def idle(inputs, outputs):
    pass


def busy(inputs, outputs):
    # Runs for minutes if nobody kills it; tests always release the session.
    acc = 0
    for i in range(10**10):
        acc = (acc + i) & 0xFFFFFFFF
    outputs[0][:] = acc.to_bytes(4, "little")


def small_payload(inputs=(b"0123456789",), output_sizes=(10,)):
    return PayloadSpec.of(inputs, [len(b) for b in inputs], output_sizes)


def start_both(computation, payload, config=CONFIG):
    session = spawn_replicas(computation, payload, config)
    session.resume(Role.TRAIL)
    return session


def wait_done(session, role, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = session.exit_status(role)
        if status is not None:
            return status
        time.sleep(0.005)
    raise AssertionError(f"{role.value} replica did not terminate in {timeout}s")


def stopped_count(session, role):
    # A SIGSTOP lands asynchronously; once the stop is reported, every thread
    # of the replica has stopped and its count is frozen.
    os.waitid(os.P_PID, session.pid(role), os.WSTOPPED | os.WNOWAIT)
    return session.read_count(role)


def test_round_trip_collects_identical_outputs_from_both_replicas():
    inputs = (b"lockstep", b" payload")
    payload = PayloadSpec.of(inputs, [8, 8], [16, 8])
    with start_both(concat_then_len, payload) as session:
        assert wait_done(session, Role.HEAD).success
        assert wait_done(session, Role.TRAIL).success
        head = session.collect_outputs(Role.HEAD)
        trail = session.collect_outputs(Role.TRAIL)
    assert head == [b"lockstep payload", (16).to_bytes(8, "little")]
    assert head == trail


def test_replicas_compute_on_private_copies_of_the_inputs():
    caller_buf = bytearray(b"0123456789")
    payload = PayloadSpec.of([caller_buf], [10], [10])
    with start_both(double_bytes, payload) as session:
        caller_buf[:] = b"XXXXXXXXXX"  # scribble after spawn
        assert wait_done(session, Role.HEAD).success
        assert wait_done(session, Role.TRAIL).success
        expected = bytes((b * 2) & 0xFF for b in b"0123456789")
        assert session.collect_outputs(Role.HEAD) == [expected]
        assert session.collect_outputs(Role.TRAIL) == [expected]


def _maps(pid):
    with open(f"/proc/{pid}/maps") as f:
        return [tuple(int(end, 16) for end in line.split()[0].split("-")) for line in f]


def test_the_trail_does_not_map_the_heads_output_region():
    # A stray write through such a mapping could make both outputs agree.
    # A page-aligned size no other mapping of this process has: the monitor
    # maps no replica's outputs either.
    size = 3 * 1024 * 1024 + 5 * 4096
    with start_both(fill_pattern, PayloadSpec.of([], [], [size])) as session:
        assert size not in [hi - lo for lo, hi in _maps("self")]
        assert wait_done(session, Role.HEAD).success
        assert wait_done(session, Role.TRAIL).success
        assert size not in [hi - lo for lo, hi in _maps("self")]
        # process_vm_writev of one byte into the head's outputs.
        session.outputs(Role.HEAD).flip_bit(0, size - 1, 0)
        head = session.collect_outputs(Role.HEAD)[0]
        trail = session.collect_outputs(Role.TRAIL)[0]
    assert head[-1] == 0xAA and head[:-1] == b"\xab" * (size - 1)
    assert trail == b"\xab" * size


def test_the_monitor_unmaps_each_input_copy_once_its_replica_is_spawned():
    # A page-aligned size no other mapping of this process has; with no
    # outputs, a region holding the inputs would be exactly this long.
    size = 3 * 1024 * 1024 + 7 * 4096
    data = bytes(size)
    with spawn_replicas(idle, PayloadSpec.of([data], [size], []), CONFIG):
        assert size not in [hi - lo for lo, hi in _maps("self")]


def test_output_regions_do_not_alias_across_replicas():
    # Corrupting one replica's output region must leave the other's intact.
    with start_both(fill_pattern, PayloadSpec.of([], [], [8])) as session:
        assert wait_done(session, Role.HEAD).success
        assert wait_done(session, Role.TRAIL).success
        session.outputs(Role.HEAD).flip_bit(0, 0, 0)
        head = session.collect_outputs(Role.HEAD)
        trail = session.collect_outputs(Role.TRAIL)
    assert head[0][0] == 0xAA  # 0xAB with bit 0 cleared
    assert trail[0] == b"\xab" * 8


def test_outputs_are_never_read_into_a_read_only_buffer():
    # process_vm_readv would write it regardless: the address lookup refuses it.
    target = bytes(8)
    with start_both(fill_pattern, PayloadSpec.of([], [], [8])) as session:
        assert wait_done(session, Role.HEAD).success
        outputs = session.outputs(Role.HEAD)
        with pytest.raises(BufferError):
            outputs.read_into(0, 0, target)
        with pytest.raises(BufferError):
            outputs.read_all_into([target])
    assert target == bytes(8)


def _pipes(pid):
    """The pipe inodes among a process's open fds, as their /proc link targets."""
    links = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            links.add(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except FileNotFoundError:  # the fd listdir itself used, closed since
            pass
    return {link for link in links if link.startswith("pipe:")}


def test_the_trail_holds_no_end_of_the_heads_report_pipe():
    # The trail, forked after the head, must not inherit the monitor's read
    # end of the head's pipe: reading it would take the head's done report
    # or traceback, a channel between the replicas.
    before = _pipes("self")
    with spawn_replicas(idle, small_payload(), CONFIG) as session:
        reports = _pipes("self") - before  # the read end of each replica's pipe
        head_report = reports & _pipes(session.pid(Role.HEAD))
        assert len(reports) == 2 and len(head_report) == 1
        assert not head_report & _pipes(session.pid(Role.TRAIL))


def read_fd(fd, inputs, outputs):
    try:
        outputs[0][:] = os.read(fd, 1)
    except OSError:  # not inherited: the fd is closed in the replica
        outputs[0][:] = b"-"


def test_a_replica_inherits_no_descriptor_of_the_callers(tmp_path):
    # An inherited fd shares one open file, offset included, with the caller
    # and the other replica: a read in one moves where the others read next.
    path = tmp_path / "shared"
    path.write_bytes(b"ab")
    fd = os.open(path, os.O_RDONLY)
    try:
        with start_both(functools.partial(read_fd, fd), PayloadSpec.of([], [], [1])) as session:
            assert wait_done(session, Role.HEAD).success
            assert wait_done(session, Role.TRAIL).success
            assert session.collect_outputs(Role.HEAD) == [b"-"]
            assert session.collect_outputs(Role.TRAIL) == [b"-"]
            for role in Role:
                fds = f"/proc/{session.pid(role)}/fd"
                links = {os.readlink(f"{fds}/{name}") for name in os.listdir(fds)}
                assert str(path) not in links
                assert os.readlink(f"{fds}/0") == os.devnull  # no stdin either
        assert os.lseek(fd, 0, os.SEEK_CUR) == 0
    finally:
        os.close(fd)


def test_a_replica_inherits_no_descriptor_above_a_lowered_open_file_limit(tmp_path):
    # A descriptor opened before the caller lowered its soft RLIMIT_NOFILE
    # stays open above the new limit: the replicas must close it too.
    path = tmp_path / "shared"
    path.write_bytes(b"ab")
    fd = os.open(path, os.O_RDONLY)
    limits = resource.getrlimit(resource.RLIMIT_NOFILE)
    high = 2000 if limits[1] == resource.RLIM_INFINITY or limits[1] > 2000 else limits[1] - 1
    try:
        os.dup2(fd, high)
        resource.setrlimit(resource.RLIMIT_NOFILE, (high // 2, limits[1]))
        with start_both(functools.partial(read_fd, high), PayloadSpec.of([], [], [1])) as session:
            assert wait_done(session, Role.HEAD).success
            assert wait_done(session, Role.TRAIL).success
            assert session.collect_outputs(Role.HEAD) == [b"-"]
            assert session.collect_outputs(Role.TRAIL) == [b"-"]
            for role in Role:
                assert not os.path.exists(f"/proc/{session.pid(role)}/fd/{high}")
        assert os.lseek(high, 0, os.SEEK_CUR) == 0
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, limits)
        os.close(fd)
        with contextlib.suppress(OSError):
            os.close(high)


def _state(pid):
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()[0]


def test_suspend_and_resume_leave_a_finished_replica_done_and_readable():
    with start_both(fill_pattern, PayloadSpec.of([], [], [8])) as session:
        assert wait_done(session, Role.HEAD).success
        for act in (session.suspend, session.resume):
            act(Role.HEAD)
            time.sleep(0.01)
            assert _state(session.pid(Role.HEAD)) != "T"
            assert session.exit_status(Role.HEAD).success
            assert session.collect_outputs(Role.HEAD) == [b"\xab" * 8]


def test_a_refused_process_vm_readv_fails_at_spawn(monkeypatch):
    def refuse(*args):
        raise OSError(errno.EPERM, "process_vm_readv: Operation not permitted")

    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(replication, "_vm_read", refuse)
    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(SpawnFailure, match="process_vm_readv .* failed with EPERM"):
        spawn_replicas(double_bytes, small_payload(), CONFIG)
    assert len(forked) == 1  # refused at the head: the trail is never forked
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_trail_is_created_stopped_and_counts_zero():
    payload = PayloadSpec.of([], [], [4])
    with spawn_replicas(busy, payload, CONFIG) as session:
        trail_pid = session.pid(Role.TRAIL)
        with open(f"/proc/{trail_pid}/stat") as f:
            stat = f.read()
        state = stat.rsplit(")", 1)[1].split()[0]
        assert state == "T"
        assert session.read_count(Role.TRAIL) == 0
        time.sleep(0.05)
        assert session.read_count(Role.TRAIL) == 0  # attached while stopped: no drift
        head_count = session.read_count(Role.HEAD)
        assert head_count > 0  # the head was released at spawn


def test_counter_remains_readable_after_replica_exit():
    payload = small_payload()
    with start_both(double_bytes, payload) as session:
        assert wait_done(session, Role.HEAD).success
        count = session.read_count(Role.HEAD)
        assert count > 0
        assert session.read_count(Role.HEAD) == count


def test_suspend_freezes_the_count_and_resume_restarts_it():
    payload = PayloadSpec.of([], [], [4])
    with spawn_replicas(busy, payload, CONFIG) as session:
        time.sleep(0.02)
        session.suspend(Role.HEAD)
        frozen = stopped_count(session, Role.HEAD)
        time.sleep(0.05)
        assert session.read_count(Role.HEAD) == frozen  # zero drift while stopped
        session.resume(Role.HEAD)
        deadline = time.monotonic() + 5.0
        while session.read_count(Role.HEAD) == frozen:
            assert time.monotonic() < deadline, "count did not move after resume"
            time.sleep(0.002)


def test_a_done_replica_that_was_checked_wakes_no_further_wait():
    # Each check drains the done report that woke it; a replica asleep after
    # its report keeps its pipe and its pidfd quiet.
    config = MonitorConfig(threshold_instructions=10_000, check_period_us=50_000)
    with start_both(idle, small_payload(), config) as session:
        for role in Role:
            assert wait_done(session, role).success
        waits = []
        for _ in range(3):
            started = time.monotonic()
            session.wait_one_period()
            waits.append(time.monotonic() - started)
    assert min(waits) >= 0.045


def test_wrapper_exception_surfaces_as_nonzero_exit_with_detail():
    payload = small_payload()
    with start_both(boom, payload) as session:
        status = wait_done(session, Role.HEAD)
        assert status.kind is ExitKind.NONZERO_EXIT and status.code == 1
        assert "wrapper exploded" in session.failure_detail(Role.HEAD)
        with pytest.raises(ReplicaIncomplete, match="nonzero-exit"):
            session.collect_outputs(Role.HEAD)


def test_wrapper_false_return_maps_to_exit_code_1():
    payload = small_payload()
    with start_both(report_failure, payload) as session:
        status = wait_done(session, Role.TRAIL)
        assert status.kind is ExitKind.NONZERO_EXIT and status.code == 1
        assert session.failure_detail(Role.TRAIL) == ""


def test_collect_outputs_refuses_a_running_replica():
    payload = PayloadSpec.of([], [], [4])
    with spawn_replicas(busy, payload, CONFIG) as session:
        with pytest.raises(ReplicaIncomplete, match="still running"):
            session.collect_outputs(Role.HEAD)


def test_kill_replica_reports_a_crash():
    payload = PayloadSpec.of([], [], [4])
    with spawn_replicas(busy, payload, CONFIG) as session:
        session.kill_replica(Role.HEAD)
        status = session.exit_status(Role.HEAD)  # it returns once the replica is dead
        assert status.kind is ExitKind.CRASH
        assert status.code == signal.SIGKILL
        with pytest.raises(ReplicaIncomplete, match="crash"):
            session.collect_outputs(Role.HEAD)


def test_release_is_idempotent_and_invalidates_the_session():
    payload = small_payload()
    session = start_both(double_bytes, payload)
    session.release()
    session.release()
    with pytest.raises(StaleHandle):
        session.pid(Role.HEAD)
    with pytest.raises(StaleHandle):
        session.read_count(Role.HEAD)
    with pytest.raises(StaleHandle):
        session.collect_outputs(Role.HEAD)


def test_release_reaps_live_replicas():
    payload = PayloadSpec.of([], [], [4])
    session = spawn_replicas(busy, payload, CONFIG)
    head_pid = session.pid(Role.HEAD)
    trail_pid = session.pid(Role.TRAIL)
    session.release()
    for pid in (head_pid, trail_pid):
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_release_kills_both_replicas_before_reaping_either(monkeypatch):
    payload = PayloadSpec.of([], [], [4])
    session = spawn_replicas(busy, payload, CONFIG)
    head_pid = session.pid(Role.HEAD)
    trail_pid = session.pid(Role.TRAIL)
    calls = []
    real_kill, real_waitpid = os.kill, os.waitpid

    def kill(pid, signum):
        calls.append(("kill", pid))
        real_kill(pid, signum)

    def waitpid(pid, options):
        calls.append(("wait", pid))
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "kill", kill)
    monkeypatch.setattr(os, "waitpid", waitpid)
    session.release()
    monkeypatch.undo()
    assert calls == [("kill", head_pid), ("kill", trail_pid),
                     ("wait", head_pid), ("wait", trail_pid)]


def test_a_failure_report_that_cannot_import_traceback_still_exits_1():
    payload = small_payload()
    with start_both(boom_without_traceback, payload) as session:
        status = wait_done(session, Role.HEAD)
        assert status.kind is ExitKind.NONZERO_EXIT and status.code == 1
        assert session.failure_detail(Role.HEAD) == ""


def test_spawn_failure_when_the_child_dies_before_stopping(monkeypatch):
    def no_stop(signum):
        raise RuntimeError("cannot stop")

    monkeypatch.setattr(signal, "raise_signal", no_stop)
    with pytest.raises(SpawnFailure, match="died before starting"):
        spawn_replicas(double_bytes, small_payload(), CONFIG)


def test_a_replica_whose_monitor_is_gone_exits_before_starting(monkeypatch):
    # The death signal is set first; a child whose parent is then no longer
    # the monitor was orphaned before it, and exits instead of stopping.
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "getppid", lambda: 1)
    with pytest.raises(SpawnFailure, match="head replica died before starting"):
        spawn_replicas(double_bytes, small_payload(), CONFIG)
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)


def test_the_head_starts_before_the_trail_is_forked(monkeypatch):
    calls = []
    real_fork, real_kill = os.fork, os.kill

    def fork():
        pid = real_fork()
        if pid:
            calls.append(("fork", pid))
        return pid

    def kill(pid, signum):
        calls.append((signal.Signals(signum).name, pid))
        real_kill(pid, signum)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "kill", kill)
    with spawn_replicas(idle, small_payload(), CONFIG) as session:
        head, trail = session.pid(Role.HEAD), session.pid(Role.TRAIL)
        assert calls == [("fork", head), ("SIGCONT", head), ("fork", trail)]


def test_pinning_to_an_impossible_core_fails_cleanly():
    config = MonitorConfig(threshold_instructions=10_000, head_core=1_000_000)
    with pytest.raises(PinningFailure, match="head"):
        spawn_replicas(double_bytes, small_payload(), config)


def test_pinning_to_an_existing_core_is_applied():
    config = MonitorConfig(threshold_instructions=10_000, head_core=0)
    with start_both(double_bytes, small_payload(), config) as session:
        assert os.sched_getaffinity(session.pid(Role.HEAD)) == {0}
        assert wait_done(session, Role.HEAD).success


def test_empty_inputs_and_zero_byte_outputs_are_legal():
    payload = PayloadSpec.of([], [], [0, 4])

    def write_second(inputs, outputs):
        outputs[1][:] = b"\x01\x02\x03\x04"

    with start_both(write_second, payload) as session:
        assert wait_done(session, Role.HEAD).success
        assert session.collect_outputs(Role.HEAD) == [b"", b"\x01\x02\x03\x04"]
