"""A simplified in-kernel TCP/IP stack — the paper's motivating baseline.

The introduction motivates Open-MX by what MPI-over-TCP cannot do: the
TCP/IP stack "was not designed for this context".  Concretely, for bulk
transfers on the hardware of the era, TCP pays

* a **copy on each side** of the wire *per segment* — sender copies user
  data into kernel socket buffers, the receive bottom half copies payload
  into the socket buffer, and the application's ``recv`` copies it out
  again (Open-MX's receive path has a single copy, offloadable to I/OAT,
  and its send path is zero-copy from pinned pages),
* per-segment protocol processing in both directions plus ACK traffic,
* small segments (1500-byte MTU was the norm; even with jumbo frames the
  per-segment costs remain).

This module implements a connection-oriented byte stream over the same
simulated Ethernet substrate: sliding-window flow control, delayed ACKs,
go-back-N retransmission, real payload bytes end to end.  It is
deliberately simpler than real TCP (no congestion control dynamics, no
SACK) — the cluster fabric is lossless and uncongested, where those
mechanisms are idle; what matters for the comparison is the copy and
per-segment cost structure.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

from repro.hw.cpu import PRIO_USER
from repro.hw.nic import EthernetFrame
from repro.kernel.context import AcquiringContext, ExecContext
from repro.kernel.kernel import Kernel, UserProcess
from repro.obs.metrics import Counters
from repro.sim import Environment, Event
from repro.util.units import SECOND

__all__ = ["ETH_P_IP", "TcpSegment", "TcpSocket", "TcpStack"]

ETH_P_IP = 0x0800
IP_TCP_HEADER_BYTES = 52  # IPv4 (20) + TCP with timestamps (32)

# Per-segment protocol processing (header parsing, checksum verification,
# sequence bookkeeping) on a ~3 GHz core of the era; scaled by clock.
TCP_SEGMENT_COST_NS_AT_3GHZ = 1_500
ACK_COST_NS_AT_3GHZ = 500


@dataclass(frozen=True)
class TcpSegment:
    """One TCP segment (or pure ACK when ``data`` is empty)."""

    src_board: str
    src_port: int
    dst_port: int
    seq: int
    ack: int
    data: bytes = b""

    @property
    def wire_payload_bytes(self) -> int:
        return IP_TCP_HEADER_BYTES + len(self.data)


@dataclass
class _RxState:
    buffer: bytearray = field(default_factory=bytearray)
    rcv_next: int = 0
    data_ready: Event | None = None
    segs_since_ack: int = 0


class TcpSocket:
    """One established connection endpoint."""

    def __init__(self, stack: "TcpStack", port: int, peer_board: str,
                 peer_port: int):
        self.stack = stack
        self.env = stack.env
        self.port = port
        self.peer_board = peer_board
        self.peer_port = peer_port
        # Send side.
        self.snd_next = 0  # next byte sequence to send
        self.snd_una = 0  # oldest unacknowledged byte
        self._unacked: list[TcpSegment] = []
        self._window_open: Event | None = None
        self._ack_activity: Event = self.env.event()
        # Receive side.
        self.rx = _RxState()
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- sending ------------------------------------------------------------
    def send(self, proc: UserProcess, va: int, nbytes: int) -> Generator:
        """Process: blocking send of ``nbytes`` from the user buffer.

        Copies into kernel socket buffers segment by segment (the first
        TCP copy), then streams segments under the send window.
        """
        stack = self.stack
        mss = stack.mss
        ctx = AcquiringContext(self.env, proc.core)
        offset = 0
        while offset < nbytes:
            length = min(mss, nbytes - offset)
            while self.snd_next + length - self.snd_una > stack.window_bytes:
                # Window full: wait for ACKs.
                self._window_open = self.env.event()
                yield self._window_open
            yield from ctx.charge(proc.core.spec.syscall_ns // 4)
            # Copy #1: user -> socket buffer.
            yield from ctx.memcpy(length)
            data = proc.aspace.read(va + offset, length)
            seg = TcpSegment(
                src_board=stack.board, src_port=self.port,
                dst_port=self.peer_port, seq=self.snd_next,
                ack=self.rx.rcv_next, data=data,
            )
            self._unacked.append(seg)
            yield from stack._xmit(ctx, self.peer_board, seg)
            self.snd_next += length
            offset += length
            self.bytes_sent += length
        # Block until everything is acknowledged (send-completes-on-ack
        # keeps the comparison to the rendezvous fair).
        while self.snd_una < self.snd_next:
            self._ack_activity = self.env.event()
            yield self._ack_activity

    # -- receiving ------------------------------------------------------------
    def recv(self, proc: UserProcess, va: int, nbytes: int) -> Generator:
        """Process: blocking receive of exactly ``nbytes`` into ``va``.

        Copies out of the socket buffer (the second TCP copy on this side).
        """
        ctx = AcquiringContext(self.env, proc.core, PRIO_USER)
        received = 0
        while received < nbytes:
            if not self.rx.buffer:
                self.rx.data_ready = self.env.event()
                yield self.rx.data_ready
                continue
            chunk = bytes(self.rx.buffer[: nbytes - received])
            del self.rx.buffer[: len(chunk)]
            # Copy #2: socket buffer -> user.
            yield from ctx.memcpy(len(chunk))
            proc.aspace.write(va + received, chunk)
            received += len(chunk)
        self.bytes_received += received
        return received

    # -- stack callbacks ---------------------------------------------------------
    def _on_segment(self, ctx: ExecContext, seg: TcpSegment) -> Generator:
        stack = self.stack
        ghz_scale = 3.16 / ctx.core.spec.ghz
        if seg.data:
            yield from ctx.charge(int(TCP_SEGMENT_COST_NS_AT_3GHZ * ghz_scale))
            if seg.seq == self.rx.rcv_next:
                # In-order: copy payload into the socket buffer (BH copy).
                yield from ctx.memcpy(len(seg.data))
                self.rx.buffer.extend(seg.data)
                self.rx.rcv_next += len(seg.data)
                if self.rx.data_ready is not None and not self.rx.data_ready.triggered:
                    self.rx.data_ready.succeed()
            else:
                stack.counters.incr("tcp_out_of_order")
            # Delayed ACK: every second segment, but ack a sub-MSS segment
            # immediately (it is usually the tail of a burst — the PSH
            # heuristic), and arm a delayed-ack timer otherwise so an
            # even/odd mismatch never deadlocks the sender.
            self.rx.segs_since_ack += 1
            if (self.rx.segs_since_ack >= stack.ack_every
                    or len(seg.data) < stack.mss):
                self.rx.segs_since_ack = 0
                yield from self._send_ack(ctx)
            elif self.rx.segs_since_ack == 1:
                self.env.process(self._delayed_ack(), name="tcp.delack")
        else:
            yield from ctx.charge(int(ACK_COST_NS_AT_3GHZ * ghz_scale))
        if seg.ack > self.snd_una:
            self.snd_una = seg.ack
            self._unacked = [s for s in self._unacked
                             if s.seq + len(s.data) > self.snd_una]
            if self._window_open is not None and not self._window_open.triggered:
                self._window_open.succeed()
            if not self._ack_activity.triggered:
                self._ack_activity.succeed()

    def _send_ack(self, ctx: ExecContext) -> Generator:
        ack = TcpSegment(
            src_board=self.stack.board, src_port=self.port,
            dst_port=self.peer_port, seq=self.snd_next,
            ack=self.rx.rcv_next,
        )
        yield from self.stack._xmit(ctx, self.peer_board, ack)

    def _delayed_ack(self) -> Generator:
        yield self.env.timeout(self.stack.delack_ns)
        if self.stack.closed or self.rx.segs_since_ack == 0:
            return
        self.rx.segs_since_ack = 0
        ctx = AcquiringContext(self.env, self.stack.kernel.bh_core)
        yield from self._send_ack(ctx)

    def _retransmit_timer(self) -> Generator:
        """Go-back-N fallback for injected loss."""
        while True:
            yield self.env.timeout(self.stack.rto_ns)
            if self.stack.closed:
                return
            if self._unacked:
                self.stack.counters.incr("tcp_retransmit")
                ctx = AcquiringContext(self.env, self.stack.kernel.bh_core)
                for seg in list(self._unacked):
                    yield from self.stack._xmit(ctx, self.peer_board, seg)


class TcpStack:
    """Per-host TCP: demultiplexes ports, owns costs and windows."""

    def __init__(self, kernel: Kernel, window_bytes: int = 256 * 1024,
                 ack_every: int = 2, rto_ns: int = SECOND // 5,
                 delack_ns: int = 500_000):
        self.kernel = kernel
        self.env: Environment = kernel.env
        self.board = kernel.host.nic.address
        self.window_bytes = window_bytes
        self.ack_every = ack_every
        self.rto_ns = rto_ns
        self.delack_ns = delack_ns
        self.mss = kernel.host.nic.spec.mtu - IP_TCP_HEADER_BYTES
        self.counters = Counters()
        self.closed = False
        self._sockets: dict[int, TcpSocket] = {}
        kernel.ethernet.register_protocol(ETH_P_IP, self._rx)

    def open_socket(self, port: int, peer_board: str,
                    peer_port: int) -> TcpSocket:
        """Create an (already-established) connection endpoint.

        Connection setup (SYN handshake) is a one-round-trip constant that
        both stacks under comparison pay once; it is omitted.
        """
        if port in self._sockets:
            raise ValueError(f"port {port} in use on {self.board}")
        sock = TcpSocket(self, port, peer_board, peer_port)
        self._sockets[port] = sock
        self.env.process(sock._retransmit_timer(), name=f"tcp.rto.{port}")
        return sock

    def close(self) -> None:
        self.closed = True

    def _xmit(self, ctx: ExecContext, dst_board: str,
              seg: TcpSegment) -> Generator:
        yield from self.kernel.ethernet.xmit(
            ctx, dst_board, seg, seg.wire_payload_bytes, ethertype=ETH_P_IP
        )
        if seg.data:
            self.counters.incr("tcp_segments_sent")
            self.counters.incr("tcp_bytes_sent", len(seg.data))
        else:
            self.counters.incr("tcp_acks_sent")

    def _rx(self, frame: EthernetFrame, ctx: ExecContext) -> Generator:
        seg = frame.payload
        if not isinstance(seg, TcpSegment):
            self.counters.incr("tcp_rx_bogus")
            return
        sock = self._sockets.get(seg.dst_port)
        if sock is None:
            self.counters.incr("tcp_rx_no_port")
            return
        yield from sock._on_segment(ctx, seg)
