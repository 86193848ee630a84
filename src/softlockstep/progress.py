"""Per-replica progress counting and suspension control.

The monitor only ever talks to a ProgressSource, keyed by Role: read a
replica's cumulative progress count, stop it, wake it, ask how it exited,
wait one check period and read the time. Every source is its own clock.
The OS-backed source is replication.ReplicaSession, over perf counters from
linuxperf.py; it alone builds a RealClock, over its replicas' report
descriptors, and waits and stamps through it. This module holds the
contract, the real clock, and the deterministic scripted source that plays
a sim.Schedule. The replay source, which feeds a previously recorded run
back through the live loop, lives with the trace format in formats.

Scripted time is measured in ticks. During tick i a running scripted replica
accrues its i-th delta; a suspend issued at tick k with latency L lets it
accrue through tick k+L and freezes it from tick k+L+1; a resume at tick k
takes effect from tick k+1. ScriptedSource holds these rules and records
the staggering after every tick the head lives, between checks too.
monitor.play_schedule, which run_scripted and the simulator call, builds one
from a schedule, runs the one enforcement loop on it as it is, and keeps
those tick-boundary instants in the loop's trace.
"""

import enum
import time
from collections.abc import Sequence
from typing import NamedTuple, Protocol, runtime_checkable

from .core import Role


class CounterUnavailable(Exception):
    """The host cannot provide the requested progress counter.

    The message always carries remediation hints (privilege knob or missing
    facility) because this is the error an operator has to act on.
    """


class SpawnFailure(RuntimeError):
    """A replica could not be brought to the stopped-and-counted state."""


class PinningFailure(RuntimeError):
    """A requested core affinity could not be applied."""


class StaleHandle(Exception):
    """Operation on a released session."""


class ExitKind(enum.Enum):
    SUCCESS = "success"
    NONZERO_EXIT = "nonzero-exit"
    CRASH = "crash"


class ExitStatus(NamedTuple):
    kind: ExitKind
    code: int = 0

    @property
    def success(self) -> bool:
        return self.kind is ExitKind.SUCCESS

    @property
    def failure_cause(self) -> str:
        return self.kind.value


_SUCCESS = ExitStatus(ExitKind.SUCCESS)

# One tick of scripted and simulated time: 1 us, so timestamps and any run
# timeout line up.
TICK_NS = 1000


@runtime_checkable
class ProgressSource(Protocol):
    """Behavioral contract the monitor depends on.

    read_count is monotonically non-decreasing per role and must work
    without any cooperation from the replica, including while it is stopped.
    suspend/resume are idempotent. An operation on a released source raises
    StaleHandle. exit_status is None while the replica runs, and how it
    ended once it has. The source is the loop's clock: wait_one_period
    advances one check period, now_ns stamps the samples. Its backend string
    names it in the trace (an attribute issubclass could not check here).
    """

    def read_count(self, role: Role) -> int: ...

    def suspend(self, role: Role) -> None: ...

    def resume(self, role: Role) -> None: ...

    def exit_status(self, role: Role) -> ExitStatus | None: ...

    def wait_one_period(self) -> None: ...

    def now_ns(self) -> int: ...


# poll(2) takes its timeout in whole milliseconds, as a C int.
_MAX_POLL_MS = 2**31 - 1


class RealClock:
    """Wall-clock periods for runs over live processes.

    A ReplicaSession builds one at spawn, over its replicas' report
    descriptors, and waits through it; nothing else does. Each report pipe's
    read end turns readable with a done report, a traceback or end of file,
    and each pidfd once that replica has exited, and a period's wait ends as
    soon as one of them turns readable. So a failing replica wakes the loop
    when it writes its traceback and again when it exits. The period's whole
    milliseconds are waited in one poll, its timeout clamped to 2**31 - 1 ms,
    and the sub-millisecond rest is slept. Each descriptor ends one wait at
    most: it is unregistered once it fires, so one that stays readable cannot
    spin the loop, and a poll with none left is a plain timed wait. A period
    under 1 ms is slept whole.
    """

    def __init__(self, period_us: int, report_fds: Sequence[int]):
        import select

        self.period_us = period_us
        self._poll = select.poll()
        for fd in report_fds:
            self._poll.register(fd, select.POLLIN)

    def wait_one_period(self) -> None:
        whole_ms, rest_us = divmod(self.period_us, 1000)
        if not whole_ms:
            time.sleep(self.period_us / 1_000_000)
            return
        ready = self._poll.poll(min(whole_ms, _MAX_POLL_MS))
        for fd, _ in ready:
            self._poll.unregister(fd)
        if not ready and rest_us:
            time.sleep(rest_us / 1_000_000)

    def now_ns(self) -> int:
        return time.monotonic_ns()


class _ScriptedReplica:
    """One scripted replica's count, advanced one tick at a time.

    length, when set, terminates the replica as soon as its count reaches it;
    either way the replica terminates once its delta list is exhausted.
    """

    def __init__(self, deltas, length, suspend_latency_ticks, running):
        self.deltas = deltas
        self.length = length
        self.suspend_latency_ticks = suspend_latency_ticks
        self.count = 0
        # Tick index from which accrual stops; None while running, 0 = never ran.
        self.frozen_from: int | None = None if running else 0

    def accrue(self, tick: int) -> None:
        if self.terminated_at(tick - 1):
            return
        if self.frozen_from is not None and tick >= self.frozen_from:
            return
        delta = self.deltas[tick - 1] if tick <= len(self.deltas) else 0
        if self.length is not None:
            delta = min(delta, self.length - self.count)
        self.count += delta

    def terminated_at(self, tick: int) -> bool:
        if self.length is not None and self.count >= self.length:
            return True
        return tick >= len(self.deltas)

    def suspend(self, tick: int) -> None:
        """Suspend issued at tick: accrues through tick + latency, then freezes."""
        if self.frozen_from is None:
            self.frozen_from = tick + self.suspend_latency_ticks + 1

    def resume(self) -> None:
        self.frozen_from = None


class ScriptedSource:
    """Deterministic test double implementing the full ProgressSource contract.

    It plays a sim.Schedule (taken by duck type: sim imports this module):
    the head runs from tick 0, the trail starts suspended, and a suspend of
    either lands after the schedule's suspend_latency_ticks. Time only moves
    when advance() is called. The source is its own clock:
    wait_one_period advances the schedule's period_ticks ticks of TICK_NS
    each, so scripted runs are exactly reproducible. instants records
    (tick, staggering) after every tick the head lives, between checks too;
    monitor.play_schedule hands them to the loop's trace.
    """

    backend = "scripted"

    def __init__(self, schedule):
        errors = schedule.validate()
        if errors:
            raise ValueError("; ".join(errors))
        self.tick = 0
        self.period_ticks = schedule.period_ticks
        latency = schedule.suspend_latency_ticks
        self._head = _ScriptedReplica(
            schedule.head_deltas, schedule.head_length, latency, running=True)
        self._trail = _ScriptedReplica(
            schedule.trail_deltas, schedule.trail_length, latency, running=False)
        self.instants: list[tuple[int, int]] = []
        # Kept rather than asked of the head: a head with no work is
        # terminated at tick 0 already, yet its first tick is an instant.
        self._head_alive = True

    def _replica(self, role: Role) -> _ScriptedReplica:
        return self._head if role is Role.HEAD else self._trail

    def advance(self, ticks: int) -> None:
        head, trail = self._head, self._trail
        for _ in range(ticks):
            self.tick += 1
            head.accrue(self.tick)
            trail.accrue(self.tick)
            if self._head_alive:
                self.instants.append((self.tick, head.count - trail.count))
                self._head_alive = not head.terminated_at(self.tick)

    def wait_one_period(self) -> None:
        self.advance(self.period_ticks)

    def now_ns(self) -> int:
        return self.tick * TICK_NS

    def read_count(self, role: Role) -> int:
        return self._replica(role).count

    def suspend(self, role: Role) -> None:
        self._replica(role).suspend(self.tick)

    def resume(self, role: Role) -> None:
        self._replica(role).resume()

    def exit_status(self, role: Role) -> ExitStatus | None:
        return _SUCCESS if self._replica(role).terminated_at(self.tick) else None
