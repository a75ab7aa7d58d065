"""Kernel Ethernet layer: protocol registration, TX path, RX dispatch.

Open-MX sits on the *generic* Ethernet layer of the kernel — no OS bypass —
which is the architectural fact the whole paper builds on (every send and
receive passes through the kernel, so the driver always gets a chance to pin
on demand).  This module models ``dev_queue_xmit`` and the ethertype-based
RX dispatch that the softirq engine feeds.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import Any

from repro.hw.nic import EthernetFrame, Nic
from repro.kernel.context import ExecContext

__all__ = ["EthernetLayer", "ETH_P_OMX"]

# The ethertype Open-MX registers (the real stack uses 0x86DF).
ETH_P_OMX = 0x86DF


class EthernetLayer:
    """Per-host Ethernet TX/RX plumbing."""

    def __init__(self, nic: Nic):
        self.nic = nic
        self._protocols: dict[int, Callable[[EthernetFrame, ExecContext], Generator]] = {}
        self._fused: dict[int, Callable[[EthernetFrame], bool]] = {}
        self.tx_packets = 0
        self.loopback_packets = 0
        self.rx_unhandled = 0

    def register_protocol(
        self,
        ethertype: int,
        handler: Callable[[EthernetFrame, ExecContext], Generator],
        fused: Callable[[EthernetFrame], bool] | None = None,
    ) -> None:
        """Register an RX handler for one ethertype.

        ``fused`` is an optional per-frame predicate declaring that the
        handler pays a ``ctx.charge`` before any externally visible action,
        which lets the softirq engine fuse its per-packet cost into that
        first charge (see :meth:`fuse_hint`).
        """
        if ethertype in self._protocols:
            raise ValueError(f"ethertype {ethertype:#x} already registered")
        self._protocols[ethertype] = handler
        if fused is not None:
            self._fused[ethertype] = fused

    def fuse_hint(self, frame: EthernetFrame) -> bool:
        """True if the BH may defer its per-packet charge for this frame."""
        pred = self._fused.get(frame.ethertype)
        return pred is not None and pred(frame)

    def xmit(
        self,
        ctx: ExecContext,
        dst: str,
        payload: Any,
        payload_bytes: int,
        ethertype: int = ETH_P_OMX,
    ) -> Generator:
        """Process: charge the TX path cost and hand the frame to the NIC.

        Returns once the frame is queued; wire serialization proceeds
        asynchronously in the NIC (the kernel does not busy-wait on TX).
        """
        yield from ctx.charge(ctx.core.spec.tx_per_packet_ns)
        frame = EthernetFrame(
            src=self.nic.address,
            dst=dst,
            ethertype=ethertype,
            payload=payload,
            payload_bytes=payload_bytes,
        )
        if dst == self.nic.address:
            # Local delivery: frames addressed to our own MAC never reach
            # the wire — the kernel loops them back (intra-node endpoints
            # talk through the same stack without spending wire bandwidth).
            # The loopback still honours the MTU: an oversized local frame
            # must fail the same way a wire frame does.
            if payload_bytes > self.nic.spec.mtu:
                raise ValueError(
                    f"frame payload {payload_bytes} exceeds MTU {self.nic.spec.mtu}"
                )
            self.nic.deliver(frame)
            self.loopback_packets += 1
        else:
            self.nic.send(frame)
        self.tx_packets += 1

    def dispatch_rx(self, frame: EthernetFrame, ctx: ExecContext) -> Generator:
        """Called by the bottom half for each received frame."""
        handler = self._protocols.get(frame.ethertype)
        if handler is None:
            self.rx_unhandled += 1
            return
        yield from handler(frame, ctx)
