"""Ethernet NIC model.

The NIC serializes frames onto the wire at link rate (one frame at a time,
full duplex: TX and RX are independent), and deposits received frames into a
bounded RX ring.  Receiving raises an interrupt via a callback installed by
the kernel; frames arriving while the ring is full are dropped (tail drop),
which exercises the retransmission machinery of the protocol above.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.hw.specs import NicSpec
from repro.obs.metrics import MetricRegistry, resolve_registry
from repro.sim import Environment, Store
from repro.util import frozen_record
from repro.util.units import transfer_time_ns

__all__ = ["EthernetFrame", "Nic"]


@frozen_record
@dataclass(frozen=True)
class EthernetFrame:
    """A frame on the wire; ``payload`` is an opaque upper-layer packet."""

    src: str
    dst: str
    ethertype: int
    payload: Any
    payload_bytes: int
    seq: int = field(default=0)

    def wire_bytes(self, overhead: int) -> int:
        return self.payload_bytes + overhead


class Nic:
    """One Ethernet port: TX serialization, RX ring, interrupt callback."""

    def __init__(self, env: Environment, spec: NicSpec, name: str,
                 metrics: MetricRegistry | None = None):
        self.env = env
        self.spec = spec
        self.name = name
        self.address = name  # flat addressing: the NIC name is its MAC
        # TX pump: one armed timer serializes the head of this deque onto
        # the wire; queued frames exit back-to-back at line rate without a
        # dedicated process (or Resource queue) per frame.
        self._txq: deque[EthernetFrame] = deque()
        self._tx_busy = False
        self.rx_ring: Store = Store(env, name=f"{name}/rxring")
        self._rx_ring_used = 0
        # Fault injection: phantom-occupied RX descriptors.  A positive value
        # shrinks the effective ring, forcing tail drops under load without
        # touching the spec (see repro.faults.models.RingPressure).
        self.ring_pressure = 0
        self._link: "LinkPort | None" = None
        self._on_rx: Callable[[], None] | None = None
        self._txseq = 0
        # Statistics: each count is this NIC's own registry cell (read it as
        # ``.value``; see docs/observability.md for the catalogue).
        registry = resolve_registry(metrics)
        self.metrics = registry
        lbl = {"nic": name}
        self.tx_frames = registry.counter(
            "nic_tx_frames", "frames serialized onto the wire",
            labelnames=("nic",)).cell(**lbl)
        self.tx_bytes = registry.counter(
            "nic_tx_bytes", "payload bytes transmitted",
            labelnames=("nic",)).cell(**lbl)
        self.rx_frames = registry.counter(
            "nic_rx_frames", "frames accepted into the RX ring",
            labelnames=("nic",)).cell(**lbl)
        self.rx_bytes = registry.counter(
            "nic_rx_bytes", "payload bytes received",
            labelnames=("nic",)).cell(**lbl)
        self.rx_ring_drops = registry.counter(
            "nic_rx_ring_drops", "frames tail-dropped on a full RX ring",
            labelnames=("nic",)).cell(**lbl)
        # ``_live_metrics`` gates the per-frame ring-depth histogram behind
        # one branch: the no-op registry hands out a shared null metric, but
        # even no-op calls cost attribute lookups on the per-frame hot path.
        self._live_metrics = registry.enabled
        self._m_ring_depth = registry.histogram(
            "nic_rx_ring_depth", "RX ring occupancy sampled at each arrival",
            labelnames=("nic",)).labels(**lbl)

    # -- wiring ------------------------------------------------------------
    def attach_link(self, link: "LinkPort") -> None:
        if self._link is not None:
            raise RuntimeError(f"{self.name} already attached to a link")
        self._link = link

    def set_rx_callback(self, callback: Callable[[], None]) -> None:
        """Install the kernel's interrupt-raise hook (one consumer only)."""
        self._on_rx = callback

    # -- transmit ----------------------------------------------------------
    def send(self, frame: EthernetFrame) -> None:
        """Fire-and-forget transmit: enqueue the frame on the TX pump.

        A persistent pump replaces the old process-per-frame design: the
        head-of-queue frame owns one armed timer, and back-to-back frames
        exit the (uncontended, FIFO) port at ``t0 + sum(frame_time)`` —
        exactly the instants the per-frame Resource queue produced, at one
        heap event per frame instead of four.

        Errors surface asynchronously from ``env.run()`` via a failed
        event, just as a crashing TX process did, so fire-and-forget
        callers still fail loudly instead of silently losing frames.
        """
        self._txseq += 1
        # The frame is frozen (wire immutability), but the NIC owns it from
        # here on: stamp the TX sequence the way its constructor writes
        # fields (see repro.util.frozen_record).
        frame.__dict__["seq"] = self._txseq
        if self._link is None:
            self.env.event().fail(RuntimeError(f"{self.name} is not connected"))
            return
        if frame.payload_bytes > self.spec.mtu:
            self.env.event().fail(ValueError(
                f"frame payload {frame.payload_bytes} exceeds MTU {self.spec.mtu}"
            ))
            return
        self._txq.append(frame)
        if not self._tx_busy:
            self._tx_busy = True
            self._arm_tx(frame)

    def _arm_tx(self, frame: EthernetFrame) -> None:
        """Start serializing the head-of-queue frame (one timer, no process)."""
        wire = frame.wire_bytes(self.spec.frame_overhead_bytes)
        timer = self.env.timeout(
            transfer_time_ns(wire, self.spec.link_bytes_per_sec)
        )
        timer.callbacks.append(self._tx_done)

    def _tx_done(self, _event) -> None:
        """Wire exit: hand the frame to the link, start the next one."""
        frame = self._txq.popleft()
        self.tx_frames.value += 1
        self.tx_bytes.value += frame.payload_bytes
        self._link.carry(frame)
        if self._txq:
            self._arm_tx(self._txq[0])
        else:
            self._tx_busy = False

    # -- receive -----------------------------------------------------------
    def deliver(self, frame: EthernetFrame) -> None:
        """Called by the link when a frame reaches this port."""
        if self._rx_ring_used + self.ring_pressure >= self.spec.rx_ring_entries:
            self.rx_ring_drops.value += 1
            return
        self._rx_ring_used += 1
        self.rx_frames.value += 1
        self.rx_bytes.value += frame.payload_bytes
        if self._live_metrics:
            self._m_ring_depth.observe(self._rx_ring_used)
        self.rx_ring.put(frame)
        if self._on_rx is not None:
            self._on_rx()

    def ring_pop(self) -> EthernetFrame | None:
        """Drain one frame from the RX ring (used by the bottom half)."""
        ok, frame = self.rx_ring.try_get()
        if ok:
            self._rx_ring_used -= 1
            return frame
        return None

    def ring_pop_peek_empty(self) -> bool:
        """True if the RX ring is currently empty (NAPI budget check)."""
        return self._rx_ring_used == 0


class LinkPort:
    """The link-side interface a NIC talks to (implemented in repro.cluster)."""

    def carry(self, frame: EthernetFrame) -> None:  # pragma: no cover - interface
        raise NotImplementedError
