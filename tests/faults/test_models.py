"""Unit tests for the seeded fault models."""

import pytest

from repro.faults import (
    BernoulliLoss,
    Blackout,
    DropNth,
    Duplicate,
    FrameMatch,
    GilbertElliott,
    PeriodicDrop,
    PinFaults,
    Reorder,
    payload_kind,
)
from repro.hw import EthernetFrame


class PullReply:  # stand-in payload classes; models match on the class name
    pass


class PullRequest:
    pass


def frame(payload=None, src="a", dst="b"):
    return EthernetFrame(src=src, dst=dst, ethertype=0x86DF,
                         payload=payload if payload is not None else PullReply(),
                         payload_bytes=100)


def test_payload_kind_is_class_name():
    assert payload_kind(frame(PullReply())) == "PullReply"
    assert payload_kind(frame(PullRequest())) == "PullRequest"


def test_frame_match_filters_src_dst_and_kinds():
    match = FrameMatch(src="a", kinds=("PullReply",))
    assert match(frame(PullReply(), src="a"))
    assert not match(frame(PullReply(), src="x"))
    assert not match(frame(PullRequest(), src="a"))
    assert FrameMatch()(frame())  # empty match is match-all
    assert not FrameMatch(dst="z")(frame(dst="b"))


def test_bernoulli_same_seed_same_schedule():
    a = BernoulliLoss(0.3, seed=42)
    b = BernoulliLoss(0.3, seed=42)
    va = [a.on_frame(frame(), now=0) is not None for _ in range(200)]
    vb = [b.on_frame(frame(), now=0) is not None for _ in range(200)]
    assert va == vb
    assert a.injected.value == b.injected.value > 0


def test_bernoulli_respects_match():
    model = BernoulliLoss(1.0, seed=1, match=FrameMatch(kinds=("PullReply",)))
    assert model.on_frame(frame(PullRequest()), now=0) is None
    verdict = model.on_frame(frame(PullReply()), now=0)
    assert verdict is not None and verdict.drop


def test_bernoulli_rejects_bad_probability():
    with pytest.raises(ValueError):
        BernoulliLoss(1.5)


def test_gilbert_elliott_good_state_is_lossless():
    model = GilbertElliott(p_enter_bad=0.0, p_exit_bad=1.0, loss_bad=1.0,
                           seed=3)
    assert all(model.on_frame(frame(), now=0) is None for _ in range(100))
    assert model.injected.value == 0


def test_gilbert_elliott_bad_state_drops():
    # Enter bad immediately, never leave, lose everything.
    model = GilbertElliott(p_enter_bad=1.0, p_exit_bad=0.0, loss_bad=1.0,
                           seed=3)
    verdicts = [model.on_frame(frame(), now=0) for _ in range(50)]
    assert all(v is not None and v.drop for v in verdicts)
    assert model.injected.value == 50


def test_gilbert_elliott_losses_are_bursty():
    """Same long-run loss rate, but runs of consecutive drops must be
    longer than an independent (Bernoulli) channel produces."""

    def mean_run(drops):
        runs, cur = [], 0
        for d in drops:
            if d:
                cur += 1
            elif cur:
                runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        return sum(runs) / max(len(runs), 1)

    ge = GilbertElliott(p_enter_bad=0.02, p_exit_bad=0.25, loss_bad=0.9,
                        seed=5)
    ge_drops = [ge.on_frame(frame(), now=0) is not None for _ in range(5000)]
    rate = sum(ge_drops) / len(ge_drops)
    be = BernoulliLoss(rate, seed=5)
    be_drops = [be.on_frame(frame(), now=0) is not None for _ in range(5000)]
    assert mean_run(ge_drops) > 1.5 * mean_run(be_drops)


def test_reorder_delays_within_bounds():
    model = Reorder(1.0, delay_ns=10_000, seed=7)
    for _ in range(50):
        verdict = model.on_frame(frame(), now=0)
        assert not verdict.drop
        assert 10_000 <= verdict.extra_delay_ns < 20_000


def test_duplicate_flags_duplication():
    model = Duplicate(1.0, seed=9)
    verdict = model.on_frame(frame(), now=0)
    assert verdict.duplicate and not verdict.drop
    assert model.injected.value == 1


def test_drop_nth_exact_positions():
    model = DropNth({2, 4}, match=FrameMatch(kinds=("PullReply",)))
    outcomes = []
    for payload in (PullReply(), PullRequest(), PullReply(), PullReply(),
                    PullReply(), PullReply()):
        outcomes.append(model.on_frame(frame(payload), now=0) is not None)
    # PullRequest doesn't count toward the position index.
    assert outcomes == [False, False, True, False, True, False]
    assert model.injected.value == 2


def test_periodic_drop_period_and_phase():
    model = PeriodicDrop(3, phase=1)
    outcomes = [model.on_frame(frame(), now=0) is not None for _ in range(9)]
    assert outcomes == [True, False, False] * 3


def test_periodic_drop_rejects_bad_period():
    with pytest.raises(ValueError):
        PeriodicDrop(0)


def test_blackout_drops_only_inside_windows():
    model = Blackout([(100, 200), (500, 600)])
    assert model.on_frame(frame(), now=50) is None
    assert model.on_frame(frame(), now=100).drop
    assert model.on_frame(frame(), now=199).drop
    assert model.on_frame(frame(), now=200) is None
    assert model.on_frame(frame(), now=550).drop
    assert model.injected.value == 3


def test_blackout_rejects_empty_window():
    with pytest.raises(ValueError):
        Blackout([(200, 100)])


def test_pin_faults_cap_and_determinism():
    model = PinFaults(fail_prob=1.0, max_failures=2, seed=1)
    assert [model.pin_should_fail() for _ in range(5)] == \
        [True, True, False, False, False]
    assert model.injected.value == 2
    # Unlimited failures when max_failures is None.
    persistent = PinFaults(fail_prob=1.0, max_failures=None, seed=1)
    assert all(persistent.pin_should_fail() for _ in range(20))


def test_pin_faults_delay_bounds():
    model = PinFaults(delay_ns=1_000, jitter_ns=500, seed=2)
    for _ in range(50):
        extra = model.pin_delay_ns(16)
        assert 1_000 <= extra < 1_500
    assert model.delays_injected == 50
    assert PinFaults().pin_delay_ns(16) == 0
