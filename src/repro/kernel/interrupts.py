"""Interrupt and bottom-half (softirq) machinery.

The NIC raises an interrupt when a frame lands in its RX ring.  The softirq
engine then runs a *bottom half* on the designated core (IRQ affinity pins
it, as the paper notes when discussing interrupts bound to a single core):

* the BH claims the core at the highest priority (``PRIO_BH``),
* pays the interrupt entry cost once, then drains the whole ring NAPI-style,
  paying a per-packet cost plus whatever the protocol handler charges
  (copies, protocol work) for each frame,
* keeps the core for the entire drain — a heavy receive flow therefore
  starves application/user work on that core, which is the exact mechanism
  behind the overlap-miss collapse studied in Section 4.3.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.hw.cpu import PRIO_BH, PRIO_USER, CpuCore
from repro.hw.nic import EthernetFrame, Nic
from repro.kernel.context import HeldContext
from repro.obs.metrics import MetricRegistry, resolve_registry
from repro.sim import Environment

__all__ = ["SoftirqEngine"]


class SoftirqEngine:
    """Schedules and runs the receive bottom half for one NIC.

    Like Linux NAPI, one bottom-half activation processes at most
    ``budget`` frames at softirq priority; if the ring is still non-empty
    the remaining work is handed to ksoftirqd — i.e. it continues at
    *normal* priority, sharing the core fairly with user work.  Without
    this cap a saturating small-packet flow would monopolize the core
    outright; with it, the victim process still runs, just very slowly —
    the regime the paper's Section 4.3 studies.
    """

    def __init__(
        self,
        env: Environment,
        core: CpuCore,
        nic: Nic,
        dispatch: Callable[[EthernetFrame, HeldContext], Generator],
        budget: int = 64,
        metrics: MetricRegistry | None = None,
        fuse_hint: Callable[[EthernetFrame], bool] | None = None,
    ):
        self.env = env
        self.core = core
        self.nic = nic
        self.dispatch = dispatch
        self.budget = budget
        # Optional per-frame predicate: True means the frame's handler pays
        # a charge before any externally visible action, so the BH
        # per-packet cost may be fused into that first charge (see
        # HeldContext.defer_ns and docs/performance.md).
        self.fuse_hint = fuse_hint
        self._scheduled = False
        # Counts: this engine's own registry cells (read as ``.value``).
        registry = resolve_registry(metrics)
        self.metrics = registry
        lbl = {"nic": nic.name}
        self.bh_runs = registry.counter(
            "softirq_bh_runs", "bottom-half activations (core acquisitions)",
            labelnames=("nic",)).cell(**lbl)
        self.frames_processed = registry.counter(
            "softirq_frames_processed", "frames drained by the bottom half",
            labelnames=("nic",)).cell(**lbl)
        self.ksoftirqd_rounds = registry.counter(
            "softirq_ksoftirqd_rounds",
            "budget exhaustions continued at normal priority (ksoftirqd)",
            labelnames=("nic",)).cell(**lbl)
        # One branch keeps the per-activation backlog histogram off the hot
        # path when nobody collects.
        self._live_metrics = registry.enabled
        self._m_backlog = registry.histogram(
            "softirq_backlog_depth",
            "RX ring occupancy when the bottom half gets the core",
            labelnames=("nic",)).labels(**lbl)

    def raise_irq(self) -> None:
        """Hardware interrupt: schedule the bottom half if it isn't already."""
        if self._scheduled:
            return
        self._scheduled = True
        self.env.process(self._bottom_half(), name=f"{self.nic.name}.bh")

    def _bottom_half(self) -> Generator:
        spec = self.core.spec
        per_packet = spec.bh_per_packet_ns
        fusable = self.fuse_hint
        processed = self.frames_processed
        priority = PRIO_BH
        while True:
            drained = False
            with self.core.request(priority) as req:
                yield req
                self.bh_runs.value += 1
                if self._live_metrics:
                    self._m_backlog.observe(self.nic._rx_ring_used)
                ctx = HeldContext(self.env, self.core, priority)
                yield from ctx.charge(spec.irq_entry_ns)
                for _ in range(self.budget):
                    frame = self.nic.ring_pop()
                    if frame is None:
                        drained = True
                        break
                    processed.value += 1
                    if fusable is not None and fusable(frame):
                        # Fuse the per-packet cost into the handler's first
                        # charge: one timeout instead of two, identical
                        # completion instants.
                        ctx.defer_ns += per_packet
                        yield from self.dispatch(frame, ctx)
                        if ctx.defer_ns:
                            # The handler bailed out before charging (e.g.
                            # a duplicate drop): pay the per-packet cost
                            # before touching the next frame.
                            yield from ctx.charge(0)
                    else:
                        yield from ctx.charge(per_packet)
                        yield from self.dispatch(frame, ctx)
                else:
                    drained = self.nic.ring_pop_peek_empty()
            if drained:
                # No yield between the empty-ring check and clearing the
                # flag, so frames arriving later re-raise the interrupt.
                self._scheduled = False
                return
            # Budget exhausted: continue as ksoftirqd at normal priority.
            self.ksoftirqd_rounds.value += 1
            priority = PRIO_USER
