"""Unit tests for the domain types and the two pure decision functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softlockstep.core import (
    MAX_CHECK_PERIOD_US,
    Action,
    DiversityLossPolicy,
    MonitorConfig,
    PayloadSpec,
    Role,
    StaggeringSample,
    TrailState,
    Verdict,
    VerdictKind,
    decide,
    staggering,
    validate_config,
)


def test_staggering_is_signed_difference():
    assert staggering(100, 40) == 60
    assert staggering(40, 100) == -60
    assert staggering(0, 0) == 0


def test_staggering_never_clamps_negative():
    assert staggering(0, 10**12) == -(10**12)


def test_staggering_rejects_negative_counts():
    with pytest.raises(ValueError):
        staggering(-1, 0)
    with pytest.raises(ValueError):
        staggering(0, -1)


def test_decide_below_threshold_suspends_running_trail():
    assert decide(84_000_000, 150_000_000, TrailState.RUNNING) is Action.SUSPEND


def test_decide_recovery_resumes_suspended_trail():
    assert decide(210_000_000, 150_000_000, TrailState.SUSPENDED) is Action.RESUME


def test_decide_exact_threshold_is_safe():
    # The rule is strict: staggering equal to the threshold needs no action
    # on a running trail, and wakes a suspended one.
    assert decide(150, 150, TrailState.RUNNING) is Action.NONE
    assert decide(150, 150, TrailState.SUSPENDED) is Action.RESUME
    assert decide(149, 150, TrailState.RUNNING) is Action.SUSPEND


def test_decide_no_action_in_steady_states():
    assert decide(200, 150, TrailState.RUNNING) is Action.NONE
    assert decide(100, 150, TrailState.SUSPENDED) is Action.NONE


@given(
    stag=st.integers(min_value=-(10**12), max_value=10**12),
    threshold=st.integers(min_value=1, max_value=10**12),
    state=st.sampled_from([TrailState.RUNNING, TrailState.SUSPENDED]),
)
def test_decide_action_is_consistent_with_rule(stag, threshold, state):
    action = decide(stag, threshold, state)
    if action is Action.SUSPEND:
        assert stag < threshold and state is TrailState.RUNNING
    elif action is Action.RESUME:
        assert stag >= threshold and state is TrailState.SUSPENDED
    else:
        # NONE means the state already agrees with the rule.
        if state is TrailState.RUNNING:
            assert stag >= threshold
        else:
            assert stag < threshold


@given(
    head=st.integers(min_value=0, max_value=10**15),
    trail=st.integers(min_value=0, max_value=10**15),
)
def test_staggering_roundtrip_property(head, trail):
    assert staggering(head, trail) == head - trail


def test_validate_config_accepts_sane_defaults():
    assert validate_config(MonitorConfig(threshold_instructions=1000)) == []


def test_validate_config_rejects_nonpositive_threshold():
    problems = validate_config(MonitorConfig(threshold_instructions=0))
    assert any("threshold" in p for p in problems)
    problems = validate_config(MonitorConfig(threshold_instructions=-5))
    assert any("threshold" in p for p in problems)


def test_validate_config_rejects_nonpositive_period():
    problems = validate_config(MonitorConfig(threshold_instructions=10, check_period_us=0))
    assert any("period" in p for p in problems)


def test_validate_config_rejects_a_period_the_clock_cannot_wait():
    # A longer period's deadline would pass the int64 nanoseconds the clock counts.
    assert validate_config(MonitorConfig(10, check_period_us=MAX_CHECK_PERIOD_US)) == []
    problems = validate_config(MonitorConfig(10, check_period_us=MAX_CHECK_PERIOD_US + 1))
    assert problems == [f"check period must be at most {MAX_CHECK_PERIOD_US} us"]


def test_validate_config_rejects_nonpositive_timeout():
    problems = validate_config(MonitorConfig(threshold_instructions=10, run_timeout_us=0))
    assert any("timeout" in p for p in problems)


def test_validate_config_rejects_shared_cores():
    config = MonitorConfig(threshold_instructions=10, head_core=1, trail_core=1)
    assert any("distinct" in p for p in validate_config(config))
    config = MonitorConfig(threshold_instructions=10, head_core=0, trail_core=1, monitor_core=0)
    assert any("distinct" in p for p in validate_config(config))


@pytest.mark.parametrize("field", ["head_core", "trail_core", "monitor_core"])
def test_validate_config_rejects_a_negative_core(field):
    # Refused here, before any fork, not by the first sched_setaffinity.
    config = MonitorConfig(threshold_instructions=10, **{field: -1})
    assert validate_config(config) == [f"{field} must be non-negative, got -1"]


def test_validate_config_allows_partial_pinning():
    config = MonitorConfig(threshold_instructions=10, head_core=2)
    assert validate_config(config) == []


def test_payload_spec_validates_sizes():
    payload = PayloadSpec.of([b"abcd"], [4], [8])
    assert payload.validate() == []
    assert payload.total_input_bytes == 4
    assert payload.total_output_bytes == 8


def test_payload_spec_rejects_length_mismatch():
    assert PayloadSpec.of([b"abc"], [4], [8]).validate() != []
    assert PayloadSpec.of([b"abc", b"x"], [3], [8]).validate() != []
    assert PayloadSpec.of([b"abc"], [3], [-1]).validate() != []


def test_payload_spec_views_typed_buffers_in_bytes():
    words = np.arange(6, dtype=np.uint32)
    payload = PayloadSpec.of([words, b"", bytearray(b"xyz")], [24, 0, 3], [4])
    assert payload.validate() == []
    assert [view.nbytes for view in payload.inputs] == [24, 0, 3]
    assert all(view.readonly and view.format == "B" for view in payload.inputs)
    assert PayloadSpec.of([words], [6], [4]).validate() == ["input 0 is 24 bytes, declared 6"]
    words[0] = 0xFFFFFFFF  # a view, not a copy
    assert bytes(payload.inputs[0][:4]) == b"\xff" * 4


def test_payload_spec_copies_a_non_contiguous_buffer_in_c_order():
    words = np.arange(12, dtype=np.uint32)
    payload = PayloadSpec.of([words[::3]], [16], [4])
    assert payload.validate() == []
    words[:] = 0
    assert bytes(payload.inputs[0]) == np.array([0, 3, 6, 9], dtype=np.uint32).tobytes()


def test_payload_spec_release_unlocks_the_callers_buffer():
    data = bytearray(b"abc")
    with PayloadSpec.of([data], [3], [0]):
        with pytest.raises(BufferError):
            data.extend(b"d")
    data.extend(b"d")
    assert data == b"abcd"


def test_sample_consistency_enforced():
    sample = StaggeringSample(0, 1000, 500, 200, Action.NONE)
    assert sample.staggering == 300


def test_verdict_constructors_enforce_their_payloads():
    assert Verdict.match().kind is VerdictKind.MATCH
    mismatch = Verdict.mismatch([(0, 7)])
    assert mismatch.mismatches == ((0, 7),)
    with pytest.raises(ValueError):
        Verdict(kind=VerdictKind.MISMATCH)  # no locations
    with pytest.raises(ValueError):
        Verdict.match()._replace(kind=VerdictKind.MISMATCH)  # a copy is checked too
    with pytest.raises(ValueError):
        Verdict(kind=VerdictKind.REPLICA_FAILURE, failed_role=Role.HEAD, failure_cause="sulked")
    loss = StaggeringSample(3, 99, 5, 9, Action.DIVERSITY_LOSS)
    assert Verdict.diversity_loss(loss).loss_sample.staggering == -4
    with pytest.raises(ValueError):
        Verdict.diversity_loss(StaggeringSample(3, 99, 9, 5, Action.DIVERSITY_LOSS))


def test_verdict_describe_names_the_first_differing_byte():
    text = Verdict.mismatch([(0, 0)]).describe()
    assert "output 0" in text and "byte 0" in text


def test_diversity_loss_policy_default_records():
    assert MonitorConfig(threshold_instructions=1).diversity_loss_policy \
        is DiversityLossPolicy.RECORD_AND_CONTINUE
