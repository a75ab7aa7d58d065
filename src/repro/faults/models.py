"""Composable, RNG-seeded fault models.

Network models plug into :class:`repro.cluster.network.Fabric` via
``add_fault_injector`` — each sees every frame the switch forwards and
returns a :class:`~repro.cluster.network.FrameVerdict` (drop / duplicate /
delay) or ``None``.  :class:`PinFaults` plugs into
:class:`repro.kernel.pinning.PinService` via its ``fault_hook`` and injects
transient ENOMEM and latency jitter into ``get_user_pages``.

Every model draws from its own ``random.Random(seed)`` stream, so a fault
schedule is a pure function of (seed, sequence of questions asked) — reruns
of a deterministic simulation see identical faults.  Each model counts the
faults it actually injected in its ``injected`` cell (read ``.value``);
:meth:`FaultModel.bind_metrics` (called by FaultPlan.apply) makes that cell
the model's share of the ``fault_injections`` obs counter.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.cluster.network import FrameVerdict
from repro.hw.nic import EthernetFrame
from repro.obs.metrics import Cell, MetricRegistry

__all__ = [
    "BernoulliLoss",
    "Blackout",
    "DropNth",
    "Duplicate",
    "FaultModel",
    "FrameMatch",
    "GilbertElliott",
    "PeriodicDrop",
    "PinFaults",
    "Reorder",
    "payload_kind",
]


def payload_kind(frame: EthernetFrame) -> str:
    """Protocol-level frame class name (``PullReply``, ``Rndv``, ...)."""
    return type(frame.payload).__name__


class FrameMatch:
    """Per-flow / per-packet-type targeting filter for network models.

    ``src``/``dst`` select one direction of one flow (NIC addresses);
    ``kinds`` selects packet classes by name.  ``None`` fields match all.
    """

    def __init__(self, src: str | None = None, dst: str | None = None,
                 kinds: Iterable[str] | None = None):
        self.src = src
        self.dst = dst
        self.kinds = frozenset(kinds) if kinds is not None else None

    def __call__(self, frame: EthernetFrame) -> bool:
        if self.src is not None and frame.src != self.src:
            return False
        if self.dst is not None and frame.dst != self.dst:
            return False
        if self.kinds is not None and payload_kind(frame) not in self.kinds:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FrameMatch(src={self.src!r}, dst={self.dst!r}, "
                f"kinds={sorted(self.kinds) if self.kinds else None})")


class FaultModel:
    """Base: seeded RNG, injection accounting in one counter cell."""

    def __init__(self, seed: int = 0, match: FrameMatch | None = None,
                 name: str | None = None):
        self.rng = random.Random(seed)
        self.match = match
        self.name = name if name is not None else type(self).__name__
        self.injected = Cell()  # unattached until bind_metrics()

    def bind_metrics(self, registry: MetricRegistry) -> None:
        """Count into ``registry``'s ``fault_injections`` from now on.

        The model's count so far moves into its new cell, so bind once,
        before the model injects anything.
        """
        cell = registry.counter(
            "fault_injections", "faults actually injected, by model",
            labelnames=("model",)).cell(model=self.name)
        cell.value += self.injected.value
        self.injected = cell

    def _matches(self, frame: EthernetFrame) -> bool:
        return self.match is None or self.match(frame)

    def on_frame(self, frame: EthernetFrame, now: int) -> FrameVerdict | None:
        return None


class BernoulliLoss(FaultModel):
    """Independent per-frame loss with probability ``prob``."""

    def __init__(self, prob: float, seed: int = 0,
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=seed, match=match, name=name)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"loss probability must be in [0,1], got {prob}")
        self.prob = prob

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        if self.rng.random() < self.prob:
            self.injected.value += 1
            return FrameVerdict(drop=True, drop_reason=self.name)
        return None


class GilbertElliott(FaultModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    The channel alternates between a *good* state (loss ``loss_good``,
    usually 0) and a *bad* state (loss ``loss_bad``); each frame first
    advances the state (``p_enter_bad`` / ``p_exit_bad`` transition
    probabilities), then rolls against the state's loss rate.  Produces the
    clustered losses that make fixed retransmission timers fire redundantly.
    """

    def __init__(self, p_enter_bad: float, p_exit_bad: float,
                 loss_bad: float, loss_good: float = 0.0, seed: int = 0,
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=seed, match=match, name=name)
        for p in (p_enter_bad, p_exit_bad, loss_bad, loss_good):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0,1]: {p}")
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_bad = loss_bad
        self.loss_good = loss_good
        self.bad = False

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        if self.bad:
            if self.rng.random() < self.p_exit_bad:
                self.bad = False
        elif self.rng.random() < self.p_enter_bad:
            self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        if loss > 0.0 and self.rng.random() < loss:
            self.injected.value += 1
            return FrameVerdict(drop=True, drop_reason=self.name)
        return None


class Reorder(FaultModel):
    """Reordering via extra delivery delay on a random subset of frames.

    A delayed frame overtakes nothing, but every *later* undelayed frame
    overtakes it — which is how the receive path sees out-of-order arrival
    (and what makes the optimistic gap detector fire spuriously).
    """

    def __init__(self, prob: float, delay_ns: int, seed: int = 0,
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=seed, match=match, name=name)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"reorder probability must be in [0,1], got {prob}")
        if delay_ns <= 0:
            raise ValueError(f"delay_ns must be positive, got {delay_ns}")
        self.prob = prob
        self.delay_ns = delay_ns

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        if self.rng.random() < self.prob:
            self.injected.value += 1
            # 1x..2x the configured delay, from the seeded stream.
            extra = self.delay_ns + self.rng.randrange(self.delay_ns)
            return FrameVerdict(extra_delay_ns=extra)
        return None


class Duplicate(FaultModel):
    """Deliver a second copy of a random subset of frames."""

    def __init__(self, prob: float, seed: int = 0,
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=seed, match=match, name=name)
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"duplicate probability must be in [0,1], got {prob}")
        self.prob = prob

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        if self.rng.random() < self.prob:
            self.injected.value += 1
            return FrameVerdict(duplicate=True)
        return None


class DropNth(FaultModel):
    """Drop the frames at given 1-indexed positions among matching frames.

    The deterministic model the loss-recovery tests use ("drop the 3rd
    PullReply"); replaces the hand-rolled closure-over-a-counter drop rules.
    """

    def __init__(self, positions: Iterable[int],
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=0, match=match, name=name)
        self.positions = frozenset(positions)
        self.seen = 0

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        self.seen += 1
        if self.seen in self.positions:
            self.injected.value += 1
            return FrameVerdict(drop=True, drop_reason=self.name)
        return None


class Blackout(FaultModel):
    """Drop every matching frame inside fixed time windows (link outage).

    Time-driven, unlike :class:`GilbertElliott` whose burst length is
    frame-driven: anything transmitted into the outage is wasted no matter
    how often it is retried — the scenario where a fixed retransmission
    timer burns redundant resends and exponential backoff pays off.
    """

    def __init__(self, windows: Iterable[tuple[int, int]],
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=0, match=match, name=name)
        self.windows = [(int(s), int(e)) for s, e in windows]
        for start, end in self.windows:
            if end <= start:
                raise ValueError(f"empty blackout window [{start}, {end})")

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        for start, end in self.windows:
            if start <= now < end:
                self.injected.value += 1
                return FrameVerdict(drop=True, drop_reason=self.name)
        return None


class PeriodicDrop(FaultModel):
    """Drop every ``period``-th matching frame (phase-shifted)."""

    def __init__(self, period: int, phase: int = 0,
                 match: FrameMatch | None = None, name: str | None = None):
        super().__init__(seed=0, match=match, name=name)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period
        self.phase = phase % period
        self.seen = 0

    def on_frame(self, frame, now):
        if not self._matches(frame):
            return None
        self.seen += 1
        if self.seen % self.period == self.phase:
            self.injected.value += 1
            return FrameVerdict(drop=True, drop_reason=self.name)
        return None


class PinFaults:
    """Pin-service fault hook: transient ENOMEM + slow-pin latency jitter.

    Plugs into ``PinService.fault_hook``.  Each pin attempt (per batch in
    the batched path) rolls against ``fail_prob``; at most ``max_failures``
    failures are ever injected (``None``: unlimited — persistent failure,
    the scenario the copy-through fallback exists for).  ``delay_ns`` plus
    up to ``jitter_ns`` of seeded jitter is charged per attempt, modelling
    a memory-pressured ``get_user_pages`` crawling through reclaim.
    """

    name = "PinFaults"

    def __init__(self, fail_prob: float = 0.0,
                 max_failures: int | None = None, delay_ns: int = 0,
                 jitter_ns: int = 0, seed: int = 0):
        if not 0.0 <= fail_prob <= 1.0:
            raise ValueError(f"fail_prob must be in [0,1], got {fail_prob}")
        self.rng = random.Random(seed)
        self.fail_prob = fail_prob
        self.max_failures = max_failures
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.injected = Cell()  # unattached until bind_metrics()
        self.delays_injected = 0

    bind_metrics = FaultModel.bind_metrics

    def pin_delay_ns(self, npages: int) -> int:
        if self.delay_ns <= 0 and self.jitter_ns <= 0:
            return 0
        extra = self.delay_ns
        if self.jitter_ns > 0:
            extra += self.rng.randrange(self.jitter_ns)
        if extra > 0:
            self.delays_injected += 1
        return extra

    def pin_should_fail(self) -> bool:
        if self.fail_prob <= 0.0:
            return False
        if (self.max_failures is not None
                and self.injected.value >= self.max_failures):
            return False
        if self.rng.random() < self.fail_prob:
            self.injected.value += 1
            return True
        return False
