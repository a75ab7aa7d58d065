"""Fault plans: a declarative, seed-reproducible bundle of fault models.

A :class:`FaultPlan` is plain data — probabilities and knobs, no live RNG
state — so the same plan can be applied to any number of clusters and each
application gets fresh, identically-seeded model instances.  ``apply``
attaches network models to the cluster's fabric, the pin-fault hook to every
host's pin service, and RX-ring pressure to every NIC, and returns an
:class:`AppliedFaultPlan` for injection accounting.

``FaultPlan.sample(seed)`` draws a randomized-but-reproducible plan for the
chaos harness: every knob is a pure function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.faults.models import (
    BernoulliLoss,
    Duplicate,
    FrameMatch,
    GilbertElliott,
    PinFaults,
    Reorder,
)
from repro.obs.metrics import resolve_registry

__all__ = ["AppliedFaultPlan", "FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault configuration; all-zero means "no faults"."""

    seed: int = 0
    # Network: independent loss, bursty (Gilbert-Elliott) loss, reordering
    # via extra delay, duplication.
    bernoulli_loss: float = 0.0
    gilbert: tuple[float, float, float] | None = None  # (p_enter_bad, p_exit_bad, loss_bad)
    reorder_prob: float = 0.0
    reorder_delay_ns: int = 100_000
    duplicate_prob: float = 0.0
    # Per-flow / per-packet-type targeting (None: all frames).  Packet class
    # names, e.g. ("PullReply", "PullRequest").
    target_kinds: tuple[str, ...] | None = None
    # NIC: phantom-occupied RX descriptors (tail-drop pressure).
    ring_pressure: int = 0
    # Pin service: transient ENOMEM + slow-pin jitter.
    pin_fail_prob: float = 0.0
    pin_max_failures: int | None = None
    pin_delay_ns: int = 0
    pin_jitter_ns: int = 0
    # VM pressure cadence for the chaos harness (0: off).  The harness owns
    # the buffers, so it drives the actual swap-out/COW/migration events.
    vm_pressure_period_ns: int = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def sample(cls, seed: int) -> "FaultPlan":
        """A randomized, reproducible plan: pure function of ``seed``."""
        rng = random.Random(seed ^ 0x5EED_FA17)
        gilbert = None
        if rng.random() < 0.5:
            gilbert = (round(rng.uniform(0.02, 0.1), 3),
                       round(rng.uniform(0.2, 0.5), 3),
                       round(rng.uniform(0.3, 0.7), 3))
        return cls(
            seed=seed,
            bernoulli_loss=rng.choice([0.0, 0.005, 0.02, 0.05]),
            gilbert=gilbert,
            reorder_prob=rng.choice([0.0, 0.02, 0.05]),
            reorder_delay_ns=rng.choice([50_000, 200_000]),
            duplicate_prob=rng.choice([0.0, 0.01, 0.03]),
            target_kinds=rng.choice([None, None, None,
                                     ("PullReply",),
                                     ("PullReply", "PullRequest"),
                                     ("EagerFrag", "Liback")]),
            ring_pressure=rng.choice([0, 0, 1000, 1016]),
            pin_fail_prob=rng.choice([0.0, 0.1, 0.3]),
            pin_max_failures=rng.choice([2, 4, 8]),
            pin_delay_ns=rng.choice([0, 20_000]),
            pin_jitter_ns=rng.choice([0, 50_000]),
            vm_pressure_period_ns=rng.choice([0, 500_000, 2_000_000]),
        )

    # -- application ---------------------------------------------------------
    def build_network_models(self) -> list:
        """Fresh network model instances (seeds derived from the plan's)."""
        match = (FrameMatch(kinds=self.target_kinds)
                 if self.target_kinds is not None else None)
        models = []
        if self.bernoulli_loss > 0.0:
            models.append(BernoulliLoss(self.bernoulli_loss,
                                        seed=self.seed * 4 + 1, match=match))
        if self.gilbert is not None:
            p_enter, p_exit, loss_bad = self.gilbert
            models.append(GilbertElliott(p_enter, p_exit, loss_bad,
                                         seed=self.seed * 4 + 2, match=match))
        if self.reorder_prob > 0.0:
            models.append(Reorder(self.reorder_prob, self.reorder_delay_ns,
                                  seed=self.seed * 4 + 3, match=match))
        if self.duplicate_prob > 0.0:
            models.append(Duplicate(self.duplicate_prob,
                                    seed=self.seed * 4 + 4, match=match))
        return models

    def build_pin_faults(self) -> PinFaults | None:
        if (self.pin_fail_prob <= 0.0 and self.pin_delay_ns <= 0
                and self.pin_jitter_ns <= 0):
            return None
        return PinFaults(fail_prob=self.pin_fail_prob,
                         max_failures=self.pin_max_failures,
                         delay_ns=self.pin_delay_ns,
                         jitter_ns=self.pin_jitter_ns,
                         seed=self.seed * 4 + 5)

    def apply(self, cluster) -> "AppliedFaultPlan":
        """Attach this plan's fault models to a built cluster."""
        registry = resolve_registry(getattr(cluster, "metrics", None))
        network = self.build_network_models()
        for model in network:
            model.bind_metrics(registry)
            cluster.fabric.add_fault_injector(model)
        pin = self.build_pin_faults()
        if pin is not None:
            pin.bind_metrics(registry)
        for node in cluster.nodes:
            if pin is not None:
                node.kernel.pin.fault_hook = pin
            if self.ring_pressure > 0:
                nic = node.host.nic
                # Never shrink the ring below a few live descriptors.
                nic.ring_pressure = min(self.ring_pressure,
                                        nic.spec.rx_ring_entries - 8)
        return AppliedFaultPlan(plan=self, network=network, pin=pin)


@dataclass
class AppliedFaultPlan:
    """Live model instances attached to one cluster."""

    plan: FaultPlan
    network: list = field(default_factory=list)
    pin: PinFaults | None = None

    def injection_counts(self) -> dict[str, int]:
        counts = {m.name: m.injected.value for m in self.network}
        if self.pin is not None:
            counts[self.pin.name] = self.pin.injected.value
        return counts

    @property
    def total_injected(self) -> int:
        return sum(self.injection_counts().values())
