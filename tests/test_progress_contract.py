"""The ProgressSource contract: every source conforms, and a live session keeps it.

The state machine runs suspends, resumes, kills and polls on either replica
of a real ReplicaSession in random order and reads both counts after every
step; each example ends by releasing the session. It forks two processes per
example and skips only if the host offers no usable progress counter.
"""

import os
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from softlockstep import linuxperf
from softlockstep.core import Action, MonitorConfig, PayloadSpec, Role, StaggeringSample
from softlockstep.formats import ReplaySource
from softlockstep.integrity import FaultSpec, _FreezeDriver
from softlockstep.progress import (
    CounterUnavailable,
    ExitKind,
    ProgressSource,
    ScriptedSource,
    StaleHandle,
)
from softlockstep.replication import ReplicaSession, spawn_replicas
from softlockstep.sim import Schedule

try:
    linuxperf.probe_counter("auto")
    _counter_reason = ""
except CounterUnavailable as exc:
    _counter_reason = str(exc)

requires_counter = pytest.mark.skipif(
    bool(_counter_reason), reason=f"no progress counter: {_counter_reason}"
)


def test_every_source_conforms_to_the_progress_source_protocol():
    session = ReplicaSession(PayloadSpec.of([], [], [4]), "task-clock", 1000, {})
    sources = [
        session,
        ScriptedSource(Schedule.of([1], [])),
        ReplaySource([StaggeringSample(0, 1000, 1, 0, Action.NONE)]),
        _FreezeDriver(session, FaultSpec.freeze(Role.HEAD, 100)),
    ]
    for source in sources:
        assert isinstance(source, ProgressSource), type(source).__name__
        assert isinstance(source.backend, str), type(source).__name__
    assert not isinstance(object(), ProgressSource)


def busy(inputs, outputs):
    # Runs for minutes unless killed; every example releases its session.
    acc = 0
    for i in range(10**10):
        acc = (acc + i) & 0xFFFFFFFF
    outputs[0][:] = acc.to_bytes(4, "little")


def _state(pid):
    """The state letter in /proc/<pid>/stat, or None once the pid is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


roles = st.sampled_from(list(Role))


class LiveSessionContract(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        config = MonitorConfig(threshold_instructions=10_000)
        self.session = spawn_replicas(busy, PayloadSpec.of([], [], [4]), config)
        self.pids = {role: self.session.pid(role) for role in Role}
        self.last = {role: 0 for role in Role}
        # The count read after /proc showed the replica stopped; it must not
        # move until the replica is resumed or killed.
        self.frozen = {role: None for role in Role}
        self.killed = set()

    @invariant()
    def read(self):
        for role in Role:
            stopped = _state(self.pids[role]) == "T"
            count = self.session.read_count(role)
            assert count >= self.last[role], "count decreased"
            self.last[role] = count
            if self.frozen[role] is not None:
                assert count == self.frozen[role], "count moved while stopped"
            elif stopped and role not in self.killed:
                self.frozen[role] = count

    @rule(role=roles)
    def suspend(self, role):
        self.session.suspend(role)

    @rule(role=roles)
    def resume(self, role):
        self.session.resume(role)
        self.frozen[role] = None

    @rule(role=roles)
    def kill(self, role):
        self.session.kill_replica(role)
        self.killed.add(role)
        # A killed task runs its exit path in the kernel, which task-clock counts.
        self.frozen[role] = None

    @rule(role=roles)
    def poll(self, role):
        status = self.session.exit_status(role)
        if role not in self.killed:
            assert status is None  # busy never finishes
            return
        deadline = time.monotonic() + 5.0
        while status is None:
            assert time.monotonic() < deadline, "a killed replica never polled as terminated"
            time.sleep(0.001)
            status = self.session.exit_status(role)
        assert status.kind is ExitKind.CRASH

    def teardown(self):
        # Every example ends here: once released, no child is left and every
        # operation raises StaleHandle.
        self.session.release()
        for pid in self.pids.values():
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        for role in Role:
            for operation in (
                self.session.read_count,
                self.session.suspend,
                self.session.resume,
                self.session.exit_status,
                self.session.kill_replica,
                self.session.pid,
            ):
                with pytest.raises(StaleHandle):
                    operation(role)


LiveSessionContract.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestLiveSessionContract = requires_counter(LiveSessionContract.TestCase)
