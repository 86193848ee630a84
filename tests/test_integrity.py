"""Output comparison exactness and the fault grammar/driver."""

import mmap
import random
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softlockstep.core import Role, VerdictKind
from softlockstep.formats import parse_fault_spec
from softlockstep.integrity import _COMPARE_CHUNK, _first_difference
from softlockstep.integrity import (
    FaultKind,
    FaultSpec,
    ShapeMismatch,
    compare_outputs,
    inject_fault,
)
from softlockstep.progress import ProgressSource


def test_identical_outputs_match():
    outs = [b"abc", b"", b"\x00" * 4]
    verdict = compare_outputs(outs, list(outs), [3, 0, 4])
    assert verdict.kind is VerdictKind.MATCH
    assert compare_outputs([], [], []).kind is VerdictKind.MATCH


def test_mismatch_reports_the_first_differing_byte_per_output():
    head = [b"aXcdY", b"same", b"zzzz"]
    trail = [b"abcde", b"same", b"zzzZ"]
    verdict = compare_outputs(head, trail, [5, 4, 4])
    assert verdict.kind is VerdictKind.MISMATCH
    assert verdict.mismatches == ((0, 1), (2, 3))  # earliest offset only


def test_comparison_is_symmetric():
    head, trail = [b"0123"], [b"01x3"]
    a = compare_outputs(head, trail, [4])
    b = compare_outputs(trail, head, [4])
    assert a.mismatches == b.mismatches == ((0, 2),)


def test_shape_violations_raise_instead_of_reporting_mismatch():
    with pytest.raises(ShapeMismatch, match="arity"):
        compare_outputs([b"a"], [b"a", b"b"], [1])
    with pytest.raises(ShapeMismatch, match="output 0"):
        compare_outputs([b"ab"], [b"a"], [2])
    with pytest.raises(ShapeMismatch, match="declared"):
        compare_outputs([b"ab"], [b"ab"], [3])


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=64),
    offset_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    bit=st.integers(min_value=0, max_value=7),
)
def test_single_bit_corruption_is_always_located_exactly(data, offset_frac, bit):
    offset = int(offset_frac * len(data))
    corrupted = bytearray(data)
    corrupted[offset] ^= 1 << bit
    verdict = compare_outputs([data], [bytes(corrupted)], [len(data)])
    assert verdict.kind is VerdictKind.MISMATCH
    assert verdict.mismatches == ((0, offset),)


def naive_first_difference(a, b):
    a, b = bytes(a), bytes(b)
    for j in range(len(a)):
        if a[j] != b[j]:
            return j
    return None


@pytest.mark.parametrize("size", [1, 2, 3, 64, 4097, 100_003, _COMPARE_CHUNK - 1, _COMPARE_CHUNK])
@pytest.mark.parametrize("where", ["first", "last", "several"])
def test_first_difference_agrees_with_a_byte_loop(size, where):
    rng = random.Random(size)
    head = rng.randbytes(size)
    trail = bytearray(head)
    positions = {"first": [0], "last": [size - 1]}.get(where) or rng.sample(range(size), min(size, 5))
    for position in positions:
        trail[position] ^= 1 << rng.randrange(8)
    # compare_outputs passes two reused bytearrays; a memoryview on either side
    # is checked too, as any buffer must give the same offset.
    with memoryview(bytearray(head)) as view:
        assert _first_difference(view, trail) == naive_first_difference(head, trail) == min(positions)
        assert _first_difference(trail, view) == min(positions)


def as_buffer(kind, data, stack):
    if kind == "bytes":
        return bytes(data)
    if kind == "memoryview":
        return memoryview(bytes(data))
    # An anonymous mapping cannot be empty: view its first len(data) bytes.
    region = stack.enter_context(mmap.mmap(-1, max(len(data), 1)))
    region[: len(data)] = data
    return region if data else stack.enter_context(memoryview(region)[:0])


EDGE_OFFSETS = (0, _COMPARE_CHUNK - 1, _COMPARE_CHUNK, _COMPARE_CHUNK + 1)
BUFFER_KINDS = ("bytes", "memoryview", "mmap")


@st.composite
def output_pairs(draw):
    """One output's head and trail bytes, with flips at chunk-edge offsets."""
    size = draw(st.sampled_from((0, 1, 7, _COMPARE_CHUNK - 1, _COMPARE_CHUNK,
                                 _COMPARE_CHUNK + 1, 2 * _COMPARE_CHUNK + 3)))
    head = bytes([draw(st.integers(0, 255))]) * size
    trail = bytearray(head)
    candidates = [o for o in EDGE_OFFSETS + (size - 1,) if 0 <= o < size]
    if candidates:
        for offset in draw(st.lists(st.sampled_from(candidates), max_size=3)):
            trail[offset] ^= 1 << draw(st.integers(0, 7))
    kinds = (draw(st.sampled_from(BUFFER_KINDS)), draw(st.sampled_from(BUFFER_KINDS)))
    return head, bytes(trail), kinds


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(output_pairs(), max_size=4))
def test_compare_agrees_with_a_byte_loop_on_any_buffer(pairs):
    expected = [(i, naive_first_difference(h, t)) for i, (h, t, _) in enumerate(pairs)]
    expected = tuple((i, off) for i, off in expected if off is not None)
    with ExitStack() as stack:
        head = [as_buffer(kinds[0], h, stack) for h, _, kinds in pairs]
        trail = [as_buffer(kinds[1], t, stack) for _, t, kinds in pairs]
        verdict = compare_outputs(head, trail, [len(h) for h, _, _ in pairs])
    if expected:
        assert verdict.kind is VerdictKind.MISMATCH
        assert verdict.mismatches == expected
    else:
        assert verdict.kind is VerdictKind.MATCH


def test_parse_bitflip():
    spec = parse_fault_spec("bitflip:trail:0:0:3")
    assert spec == FaultSpec.bit_flip(Role.TRAIL, 0, 0, 3)
    spec = parse_fault_spec("bitflip:head:2:117:7")
    assert (spec.kind, spec.target) == (FaultKind.BIT_FLIP, Role.HEAD)
    assert (spec.output_index, spec.byte_offset, spec.bit_index) == (2, 117, 7)


def test_parse_freeze_durations():
    assert parse_fault_spec("freeze:head:3ms").duration_us == 3000
    assert parse_fault_spec("freeze:head:2s").duration_us == 2_000_000
    assert parse_fault_spec("freeze:head:10us").duration_us == 10
    assert parse_fault_spec("freeze:trail:150").duration_us == 150  # bare = us


def test_parse_crash():
    assert parse_fault_spec("crash:head") == FaultSpec.crash(Role.HEAD)
    assert parse_fault_spec(" crash:trail ").target is Role.TRAIL


@pytest.mark.parametrize("text,fragment", [
    ("bitflip", "kind:target"),
    ("sulk:head", "unknown fault kind"),
    ("bitflip:nose:0:0:0", "unknown fault target"),
    ("bitflip:head:0:0", "output_index:byte_offset:bit_index"),
    ("bitflip:head:0:0:8", "bit_index must be 0..7"),
    ("bitflip:head:-1:0:0", "non-negative"),
    ("freeze:head", "needs a duration"),
    ("freeze:head:0", "must be positive"),
    ("freeze:head:-5ms", "must be positive"),
    ("crash:head:now", "no parameters"),
])
def test_parse_rejects_bad_specs(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_fault_spec(text)


class _FakeSession:
    backend = "fake"

    def __init__(self):
        self.log = []
        self.now = 0

    def read_count(self, role):
        return 0

    def exit_status(self, role):
        return None

    def suspend(self, role):
        self.log.append(("suspend", role))

    def resume(self, role):
        self.log.append(("resume", role))

    def kill_replica(self, role):
        self.log.append(("kill", role))

    def wait_one_period(self):
        self.log.append(("wait", self.now))

    def now_ns(self):
        return self.now


def wait_until(source, session, now_ns):
    """One period of the driver's wait, which must wait out the session's, ending at now_ns."""
    session.now = now_ns
    source.wait_one_period()
    session.log.remove(("wait", now_ns))


def test_a_bit_flip_arms_nothing_before_the_loop():
    # The flip is written after the loop, by protect(), into the target's outputs.
    session = _FakeSession()
    assert inject_fault(session, FaultSpec.bit_flip(Role.TRAIL, 1, 9, 2)) is session
    assert session.log == []


def test_inject_crash_kills_immediately():
    # The kill happens at arm time: a fast replica must not be able to finish
    # cleanly before the first check would have fired.
    session = _FakeSession()
    assert inject_fault(session, FaultSpec.crash(Role.HEAD)) is session
    assert session.log == [("kill", Role.HEAD)]


def test_freeze_driver_suspends_then_resumes_after_the_hold():
    session = _FakeSession()
    source = inject_fault(session, FaultSpec.freeze(Role.HEAD, duration_us=100))
    assert isinstance(source, ProgressSource) and source is not session
    assert source.read_count == session.read_count
    assert source.exit_status == session.exit_status
    assert source.now_ns == session.now_ns and source.backend == "fake"
    assert session.log == []  # nothing until the first period ends
    wait_until(source, session, 1_000_000)
    assert session.log == [("suspend", Role.HEAD)]
    wait_until(source, session, 1_050_000)  # inside the hold: no action
    assert session.log == [("suspend", Role.HEAD)]
    wait_until(source, session, 1_100_000)  # 100 us later: resume
    assert session.log == [("suspend", Role.HEAD), ("resume", Role.HEAD)]
    wait_until(source, session, 1_200_000)  # done: never fires again
    assert session.log == [("suspend", Role.HEAD), ("resume", Role.HEAD)]


def test_a_trail_freeze_holds_the_loops_requests_and_ends_as_last_asked():
    session = _FakeSession()
    source = inject_fault(session, FaultSpec.freeze(Role.TRAIL, duration_us=100))
    wait_until(source, session, 1_000_000)
    for request in (source.resume, source.suspend, source.resume):
        request(Role.TRAIL)  # the loop's requests inside the hold: held back
    assert session.log == [("suspend", Role.TRAIL)]
    wait_until(source, session, 1_100_000)  # the loop last asked for a running trail
    assert session.log == [("suspend", Role.TRAIL), ("resume", Role.TRAIL)]
    source.suspend(Role.TRAIL)  # after the hold, requests go straight through
    assert session.log[-1] == ("suspend", Role.TRAIL)


def test_a_freeze_ends_stopped_for_a_trail_and_passes_the_other_role_through():
    session = _FakeSession()
    source = inject_fault(session, FaultSpec.freeze(Role.TRAIL, duration_us=100))
    wait_until(source, session, 1_000_000)
    wait_until(source, session, 1_100_000)  # the loop never resumed it: it stays stopped
    assert session.log == [("suspend", Role.TRAIL)]
    session = _FakeSession()
    source = inject_fault(session, FaultSpec.freeze(Role.HEAD, duration_us=100))
    wait_until(source, session, 1_000_000)
    source.resume(Role.TRAIL)
    assert session.log == [("suspend", Role.HEAD), ("resume", Role.TRAIL)]
