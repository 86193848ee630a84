"""Output comparison and fault injection.

Comparison is byte-exact: replicas run the same deterministic wrapper on
identical private input copies, so any differing byte is a detected fault,
never noise. A replica's outputs are read from its own memory chunk by
chunk into two small reused buffers, never mapped or copied whole.
Injection exists to prove that claim end to end: flip one output bit, stall
one replica, or kill it outright, and watch the verdict change accordingly.
A crash and a freeze are armed here against a live session, a freeze as the
loop's progress source, which times its hold in its own wait; protect()
writes a bit flip after the loop.
"""

import functools
from collections.abc import Callable, Sequence
from enum import Enum
from typing import NamedTuple

from .core import Role, Verdict
from .progress import ProgressSource

# Bytes compared per step: small enough that both chunk buffers stay in
# cache between the reads and the comparison.
_COMPARE_CHUNK = 256 * 1024


class ShapeMismatch(ValueError):
    """Output lists disagree in arity or byte length; comparison is undefined."""


def _reader(outputs) -> tuple[list[int], Callable]:
    """(byte sizes, read_into(index, offset, dest)) for a replica's outputs or a list of buffers."""
    if hasattr(outputs, "read_into"):
        return list(outputs.sizes), outputs.read_into
    buffers = list(outputs)

    def read_into(index, offset, dest):
        with memoryview(buffers[index]) as view:
            dest[:] = view.cast("B")[offset : offset + len(dest)]

    sizes = []
    for buf in buffers:
        with memoryview(buf) as view:
            sizes.append(view.nbytes)
    return sizes, read_into


def _first_difference(a, b) -> int:
    """Offset of the first byte where two equal-length byte buffers that differ do."""
    # Bisection keeping x[:lo] == y[:lo] and x[:hi] != y[:hi]; bytearray == buffer runs memcmp.
    with memoryview(a) as x, memoryview(b) as y:
        lo, hi = 0, len(x)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bytearray(x[lo:mid]) == y[lo:mid]:
                lo = mid
            else:
                hi = mid
    return lo


def compare_outputs(head_outputs, trail_outputs, output_sizes: Sequence[int]) -> Verdict:
    """Byte-for-byte verdict over both replicas' outputs, read chunk by chunk.

    Each side is a sequence of buffers (bytes, memoryview, mmap, ...) or a
    replica's outputs (replication.ReplicaOutputs), which are read in place
    with process_vm_readv. Each chunk of the head and of the trail is read
    into one of two small reused buffers and compared with memcmp; no copy
    of the outputs outlives the call. Returns Match, or Mismatch carrying
    (output_index, first_differing_byte) for every output that differs.
    Shape violations raise instead of counting as mismatches: they indicate
    harness bugs, not computation faults.
    """
    head_sizes, read_head = _reader(head_outputs)
    trail_sizes, read_trail = _reader(trail_outputs)
    if not (len(head_sizes) == len(trail_sizes) == len(output_sizes)):
        raise ShapeMismatch(
            f"output arity differs: head {len(head_sizes)}, "
            f"trail {len(trail_sizes)}, declared {len(output_sizes)}"
        )
    for i, (a_len, b_len, size) in enumerate(zip(head_sizes, trail_sizes, output_sizes)):
        if a_len != size or b_len != size:
            raise ShapeMismatch(
                f"output {i}: head {a_len} bytes, trail {b_len} bytes, declared {size}"
            )
    head = trail = bytearray()  # sized by the first chunk, reused while sizes agree
    locations = []
    for i, size in enumerate(output_sizes):
        for start in range(0, size, _COMPARE_CHUNK):
            n = min(_COMPARE_CHUNK, size - start)
            if len(head) != n:
                head, trail = bytearray(n), bytearray(n)
            read_head(i, start, head)
            read_trail(i, start, trail)
            # bytearray == bytearray runs memcmp; memoryview == memoryview
            # compares item by item, about 25 times slower.
            if head != trail:
                locations.append((i, start + _first_difference(head, trail)))
                break
    if locations:
        return Verdict.mismatch(locations)
    return Verdict.match()


class FaultKind(Enum):
    BIT_FLIP = "bitflip"
    FREEZE = "freeze"
    CRASH = "crash"


class FaultSpec(NamedTuple):
    """One injectable fault; formats.parse_fault_spec reads it from 'kind:target[:params]' text."""

    kind: FaultKind
    target: Role
    output_index: int = 0
    byte_offset: int = 0
    bit_index: int = 0
    duration_us: int = 0

    @classmethod
    def bit_flip(cls, target: Role, output_index: int, byte_offset: int, bit_index: int) -> "FaultSpec":
        return cls(
            kind=FaultKind.BIT_FLIP,
            target=target,
            output_index=output_index,
            byte_offset=byte_offset,
            bit_index=bit_index,
        )

    @classmethod
    def freeze(cls, target: Role, duration_us: int) -> "FaultSpec":
        return cls(kind=FaultKind.FREEZE, target=target, duration_us=duration_us)

    @classmethod
    def crash(cls, target: Role) -> "FaultSpec":
        return cls(kind=FaultKind.CRASH, target=target)


class _FreezeDriver:
    """The loop's progress source in a freeze run: the session, with one replica held.

    It forwards counts, exits, time and backend to the session, and times
    the hold in its own wait: the first period's end stops the target out of
    band for the duration, before that check's reads. Meanwhile the loop's
    requests for the target are recorded, not sent, so none ends the hold
    early, and the hold ends in the state the loop last asked for. The loop
    starts with the head running and the trail stopped, so a held head runs
    again at the end, and a held trail only if the loop has resumed it
    meanwhile.
    """

    def __init__(self, session, fault: FaultSpec):
        self.session = session
        self.fault = fault
        self.read_count = session.read_count
        self.exit_status = session.exit_status
        self.now_ns = session.now_ns
        self.backend = session.backend
        self.holding: bool | None = None  # None until the first period ends
        self.resume_after_ns = 0
        self.wants_running = fault.target is Role.HEAD

    def wait_one_period(self) -> None:
        self.session.wait_one_period()
        now_ns = self.session.now_ns()
        if self.holding is None:
            self.session.suspend(self.fault.target)
            self.holding, self.resume_after_ns = True, now_ns + self.fault.duration_us * 1000
        elif self.holding and now_ns >= self.resume_after_ns:
            self.holding = False
            if self.wants_running:
                self.session.resume(self.fault.target)

    def _request(self, role: Role, running: bool) -> None:
        if self.holding and role is self.fault.target:
            self.wants_running = running
        else:
            (self.session.resume if running else self.session.suspend)(role)

    suspend = functools.partialmethod(_request, running=False)
    resume = functools.partialmethod(_request, running=True)


def check_bit(output_sizes: Sequence[int], output_index: int, byte_offset: int, bit_index: int) -> None:
    """Refuse, with ValueError, a bit that lies outside the declared outputs."""
    if not 0 <= output_index < len(output_sizes):
        raise ValueError(f"output index {output_index} out of range")
    if not 0 <= byte_offset < output_sizes[output_index]:
        raise ValueError(f"byte offset {byte_offset} out of range for output {output_index}")
    if not 0 <= bit_index < 8:
        raise ValueError(f"bit index {bit_index} out of range")


def inject_fault(session, fault: FaultSpec) -> ProgressSource:
    """Arm a fault that acts before or during the loop, and return the loop's source.

    A crash kills the target right now and waits until it is dead, so the
    first check reports the crash even when the target had already reported
    done; the loop polls the session itself. A freeze is a timed behavior:
    the loop polls a _FreezeDriver in the session's place, which times the
    hold in its wait. A bit flip acts after the loop: protect() writes it
    into the target's outputs once the head has stopped, before the
    comparison, so here it arms nothing.
    """
    if fault.kind is FaultKind.FREEZE:
        return _FreezeDriver(session, fault)
    if fault.kind is FaultKind.CRASH:
        session.kill_replica(fault.target)
    return session
