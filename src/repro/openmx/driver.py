"""The Open-MX kernel driver.

This module is the kernel half of Figure 4: it owns endpoints, user regions
and their pinning (via :class:`PinManager`), hooks MMU notifiers into each
endpoint's address space, and implements the MXoE protocol engine —

* eager sends (copy through statically-pinned kernel buffers, liback-acked),
* the rendezvous / pull / pull-reply / notify exchange for large messages
  (Figure 2), driven entirely by incoming packets in bottom-half context,
* overlapped on-demand pinning: the initiating packet is sent before the
  region is pinned; data-path packets that touch pages beyond the region's
  pinned watermark are **dropped** and recovered by the pull protocol's
  optimistic re-request (or its timeout), exactly as Section 3.3 describes.

Counters mirror the instrumentation the paper added to measure overlap-miss
probability (Section 4.3).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

from repro.hw.cpu import PRIO_KERNEL
from repro.hw.memory import PAGE_SIZE
from repro.hw.nic import EthernetFrame
from repro.hw.memory import OutOfMemory
from repro.kernel.address_space import BadAddress
from repro.kernel.context import AcquiringContext, ExecContext
from repro.kernel.mmu_notifier import IntervalIndex
from repro.kernel.kernel import Kernel, UserProcess
from repro.obs.metrics import Counters, MetricRegistry
from repro.obs.spans import Span, SpanTracker
from repro.openmx.config import (
    DATA_FRAME_PAYLOAD,
    PIN_RETRY_BACKOFF_NS,
    PIN_RETRY_MAX,
    PULL_BLOCK,
    PULL_WINDOW,
    OpenMXConfig,
    PinningMode,
)
from repro.openmx.events import (
    EagerSendFailed,
    RecvEagerEvent,
    RecvLargeDone,
    RndvEvent,
    SendLargeDone,
)
from repro.openmx.pin_manager import PinManager
from repro.openmx.regions import Segment, UserRegion
from repro.openmx.wire import (
    EagerFrag,
    Liback,
    Notify,
    OmxPacket,
    PullReply,
    PullRequest,
    Rndv,
)
from repro.sim import Environment, Event, Store

__all__ = ["DriverEndpoint", "OpenMXDriver"]


@dataclass
class _SendState:
    """A large send between rndv and notify."""

    seq: int
    region: UserRegion
    dst_board: str
    dst_endpoint: int
    done: bool = False
    span: Span | None = None
    # Reliability: the rndv packet (for watchdog retransmission), a
    # completion event the watchdog waits on, and the time of the last pull
    # request observed for this send's region (its progress signal).
    rndv: Rndv | None = None
    done_event: Event | None = None
    last_activity_ns: int = 0


@dataclass
class _PullState:
    """A large receive: outstanding pull blocks and chunk bookkeeping."""

    handle: int
    region: UserRegion
    src_board: str
    src_endpoint: int
    sender_region: int
    sender_seq: int
    length: int
    nchunks: int
    chunk_bytes: int
    block_chunks: int
    received: list[bool] = field(default_factory=list)
    # Low watermark: every chunk below it has been received.  ``received``
    # only goes from False to True, and only through ``mark_received``.
    first_missing: int = 0
    bytes_received: int = 0
    next_block: int = 0
    nblocks: int = 0
    last_request_ns: list[int] = field(default_factory=list)
    requested_chunks: int = 0  # index one past the last requested chunk
    dma_events: list[Event] = field(default_factory=list)
    # Chunks whose replies were dropped on a receive-side overlap miss;
    # re-requested as soon as the pinned watermark covers them.
    missed: set[int] = field(default_factory=set)
    done: bool = False
    done_event: Event | None = None
    progress_marker: int = 0  # for the fallback retransmit timer
    span: Span | None = None
    block_spans: dict[int, Span] = field(default_factory=dict)
    # Copy-through fallback: replies land here when the region could not be
    # pinned; scattered to the user buffers at completion.
    bounce: bytearray | None = None

    def chunk_range(self, chunk: int) -> tuple[int, int]:
        off = chunk * self.chunk_bytes
        return off, min(self.chunk_bytes, self.length - off)

    def block_complete(self, block: int) -> bool:
        lo = block * self.block_chunks
        hi = min(lo + self.block_chunks, self.nchunks)
        return all(self.received[max(lo, self.first_missing):hi])

    def mark_received(self, chunk: int) -> None:
        """Record ``chunk`` as landed and advance the received prefix."""
        received = self.received
        received[chunk] = True
        if chunk == self.first_missing:
            c, n = chunk + 1, self.nchunks
            while c < n and received[c]:
                c += 1
            self.first_missing = c

    def evidently_lost(self, chunk: int) -> list[int]:
        """Chunks proven lost by the arrival of ``chunk`` (footnote 4).

        The fabric and the sender both preserve order, so any chunk that was
        requested no later than the arriving chunk's request and is still
        missing can only have been dropped (wire loss, ring overflow, or an
        overlap miss at the sender).  Every chunk below ``first_missing`` is
        received, so the scan starts there and still returns exactly the
        ascending list a scan from chunk 0 would.
        """
        req_time = self.last_request_ns[chunk]
        received, last_request = self.received, self.last_request_ns
        end = min(chunk, self.requested_chunks)
        return [
            c for c in range(self.first_missing, end)
            if not received[c] and last_request[c] <= req_time
        ]

    def unreceived(self) -> list[int]:
        """Requested chunks still missing, in ascending order."""
        received = self.received
        return [
            c for c in range(self.first_missing, self.requested_chunks)
            if not received[c]
        ]


@dataclass
class _EagerTxState:
    """An eager message awaiting its liback (for retransmission)."""

    seq: int
    dst_board: str
    dst_endpoint: int
    match_info: int
    data: bytes
    acked: Event | None = None


class DriverEndpoint:
    """Kernel-side endpoint state."""

    def __init__(self, driver: "OpenMXDriver", endpoint_id: int, proc: UserProcess):
        self.driver = driver
        self.id = endpoint_id
        self.proc = proc
        self.env = driver.env
        self.regions: dict[int, UserRegion] = {}
        # Segment-range interval index over declared regions: an MMU
        # invalidation dispatches only to the regions it can hit (O(log n+k))
        # instead of scanning every region x segment.
        self.region_index = IntervalIndex()
        self._next_region = 1
        self.event_queue: Store = Store(self.env, f"omx.ep{endpoint_id}.events")
        self.doorbell: Event = self.env.event()
        # Protocol state.
        self._send_seq = 0
        self.sends: dict[int, _SendState] = {}
        self._next_handle = 1
        self.pulls: dict[int, _PullState] = {}
        self.eager_tx: dict[int, _EagerTxState] = {}
        self._reassembly: dict[tuple[str, int, int], dict[int, bytes]] = {}
        self._seen_eager: dict[tuple[str, int], set[int]] = {}
        # Rendezvous reliability: per peer, seq -> "active" while the pull is
        # in flight, or the Notify packet once it completed (replayed when a
        # retransmitted rndv reveals the original notify was lost).
        self._rndv_log: dict[tuple[str, int], dict[int, object]] = {}
        # MMU notifier: one per open endpoint (Section 3.1).
        self._notifier = _EndpointNotifier(self)
        proc.aspace.notifiers.register(self._notifier)

    # -- event plumbing ---------------------------------------------------------
    def post_event(self, event) -> None:
        self.event_queue.put(event)
        if not self.doorbell.triggered:
            self.doorbell.succeed()

    def refresh_doorbell(self) -> Event:
        if self.doorbell.triggered:
            self.doorbell = self.env.event()
        return self.doorbell

    def next_seq(self) -> int:
        self._send_seq += 1
        return self._send_seq

    def new_region_id(self) -> int:
        rid = self._next_region
        self._next_region += 1
        return rid

    def new_handle(self) -> int:
        h = self._next_handle
        self._next_handle += 1
        return h

    def close(self) -> None:
        self.proc.aspace.notifiers.unregister(self._notifier)
        del self.driver.endpoints[self.id]


class _EndpointNotifier:
    """The MMU notifier Open-MX attaches to the process address space."""

    def __init__(self, ep: DriverEndpoint):
        self.ep = ep

    def invalidate_range(self, start: int, end: int) -> None:
        mgr = self.ep.driver.pin_mgr
        for rid in self.ep.region_index.overlapping(start, end):
            region = self.ep.regions[rid]
            if region.watermark == 0 and region.state.value != "pinning":
                continue
            mgr.invalidated(region)

    def release(self) -> None:
        for region in self.ep.regions.values():
            self.ep.driver.pin_mgr.invalidated(region)


class OpenMXDriver:
    """One host's Open-MX driver instance."""

    def __init__(self, kernel: Kernel, config: OpenMXConfig,
                 spans: SpanTracker | None = None,
                 metrics: MetricRegistry | None = None):
        self.kernel = kernel
        self.env: Environment = kernel.env
        self.config = config
        self.board = kernel.host.nic.address
        # Observability: each protocol count is this driver's own cell of an
        # ``omx_*`` registry counter (per-driver reads like
        # ``driver.counters["overlap_miss_recv"]`` stay exact when clusters
        # share a registry); ``spans`` (one stream shared by the cluster's
        # drivers) records protocol marks and one tree per rendezvous when
        # tracing is on.
        self.metrics = metrics if metrics is not None else kernel.metrics
        host_name = kernel.host.name
        self.counters = Counters(self.metrics, prefix="omx_", host=host_name)
        self.spans = spans if spans is not None else SpanTracker(enabled=False)
        mode = config.pinning_mode.value
        pin_wait = self.metrics.histogram(
            "omx_pin_wait_ns",
            "time a request waited for its region pin, by side and mode",
            labelnames=("host", "mode", "side"), sample_capacity=512,
        )
        self._m_pin_wait_send = pin_wait.labels(host=host_name, mode=mode,
                                                side="send")
        self._m_pin_wait_recv = pin_wait.labels(host=host_name, mode=mode,
                                                side="recv")
        self.pin_mgr = PinManager(self.env, kernel, config, self.counters)
        self.endpoints: dict[int, DriverEndpoint] = {}
        # The packet classes whose BH per-packet charge may be fused (see
        # _rx_fusable); neither the trace switch nor the mode changes after
        # build.
        if self.spans.enabled:
            self._fusable: tuple[type, ...] = ()
        elif config.pinning_mode.overlapped:
            self._fusable = (EagerFrag, Rndv, PullReply)
        else:
            self._fusable = (EagerFrag, Rndv)
        from repro.kernel.ethernet import ETH_P_OMX

        kernel.ethernet.register_protocol(ETH_P_OMX, self._rx,
                                          fused=self._rx_fusable)

    # ------------------------------------------------------------------ setup
    def open_endpoint(self, proc: UserProcess, endpoint_id: int) -> DriverEndpoint:
        if endpoint_id in self.endpoints:
            raise ValueError(f"endpoint {endpoint_id} already open on {self.board}")
        ep = DriverEndpoint(self, endpoint_id, proc)
        self.endpoints[endpoint_id] = ep
        return ep

    # ------------------------------------------------------------- region mgmt
    def declare_region(self, ctx: ExecContext, ep: DriverEndpoint,
                       segments: tuple[Segment, ...]) -> Generator:
        """Syscall body: declare a user region; returns its integer id.

        No pinning happens here — that is the decoupling the paper proposes.
        The whole segment list crosses the user/kernel boundary exactly once.
        """
        yield from ctx.charge(100 + 50 * len(segments))
        rid = ep.new_region_id()
        region = UserRegion(rid, ep.proc.aspace, segments, owner=ep.id)
        ep.regions[rid] = region
        ep.region_index.add(rid, region.segment_ranges())
        self.counters.incr("regions_declared")
        self.trace(ep, "declare_region", region=rid, length=region.total_length)
        return rid

    def destroy_region(self, ctx: ExecContext, ep: DriverEndpoint,
                       rid: int) -> Generator:
        """Syscall body: free a region id, unpinning if needed."""
        region = ep.regions.pop(rid, None)
        if region is None:
            raise KeyError(f"destroy of unknown region {rid}")
        ep.region_index.remove(rid)
        if region.active_comms:
            raise RuntimeError(f"destroying region {rid} with active comms")
        yield from ctx.charge(100)
        yield from self.pin_mgr.region_destroyed(ctx, region)
        self.counters.incr("regions_destroyed")

    # --------------------------------------------------------------- send side
    def send_eager(self, ctx: ExecContext, ep: DriverEndpoint, dst_board: str,
                   dst_endpoint: int, match_info: int, data: bytes) -> Generator:
        """Syscall body: copy into kernel buffers and push eager fragments."""
        seq = ep.next_seq()
        # Copy into the statically-pinned intermediate buffer (Section 2.2).
        yield from ctx.memcpy(len(data))
        state = _EagerTxState(seq, dst_board, dst_endpoint, match_info, data)
        state.acked = self.env.event()
        ep.eager_tx[seq] = state
        yield from self._xmit_eager_frags(ctx, ep, state)
        self.env.process(self._eager_retransmit_timer(ep, state),
                         name=f"omx.eagerrtx.{seq}")
        self.counters.incr("eager_sent")
        return seq

    def _xmit_eager_frags(self, ctx: ExecContext, ep: DriverEndpoint,
                          state: _EagerTxState) -> Generator:
        payload = DATA_FRAME_PAYLOAD
        nfrags = max(1, (len(state.data) + payload - 1) // payload)
        for i in range(nfrags):
            chunk = state.data[i * payload : (i + 1) * payload]
            pkt = EagerFrag(
                src_board=self.board, src_endpoint=ep.id,
                dst_endpoint=state.dst_endpoint, seq=state.seq,
                match_info=state.match_info, msg_length=len(state.data),
                frag_index=i, nfrags=nfrags, offset=i * payload, data=chunk,
            )
            yield from self._xmit(ctx, state.dst_board, pkt)

    def _eager_retransmit_timer(self, ep: DriverEndpoint,
                                state: _EagerTxState) -> Generator:
        """Bounded eager retransmission with exponential backoff.

        Mirrors the pull path's ``max_resend_rounds``: when the peer stays
        unreachable the loop gives up, counts an ``eager_timeout`` and
        surfaces the failure to the library instead of spinning forever.
        """
        rounds = 0
        while True:
            delay = self.config.resend_delay_ns(rounds, key=state.seq)
            timer = self.env.timeout(delay)
            result = yield self.env.race(state.acked, timer)
            timer.cancel()  # recycle the loser; no-op if it fired
            if result is state.acked:
                return
            if state.seq not in ep.eager_tx:
                return
            if rounds >= self.config.max_resend_rounds:
                del ep.eager_tx[state.seq]
                self.counters.incr("eager_timeout")
                self.trace(ep, "eager_timeout", seq=state.seq)
                ep.post_event(EagerSendFailed(seq=state.seq))
                return
            rounds += 1
            self.counters.incr("eager_retransmit")
            # Re-arm the ack before retransmitting so a liback racing the
            # retransmission is never missed.
            state.acked = self.env.event()
            ctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
            yield from self._xmit_eager_frags(ctx, ep, state)

    def submit_send_large(self, ctx: ExecContext, ep: DriverEndpoint,
                          rid: int, dst_board: str, dst_endpoint: int,
                          match_info: int) -> Generator:
        """Syscall body: start a rendezvous send.  Returns the send seq.

        Synchronous modes pin before the rndv leaves (Figure 2); overlapped
        modes send the rndv first and pin concurrently (Figure 5).
        """
        region = ep.regions[rid]
        seq = ep.next_seq()
        state = _SendState(seq, region, dst_board, dst_endpoint)
        state.span = self.spans.begin("rndv", self.env.now, source=self.board,
                                      side="send", seq=seq,
                                      bytes=region.total_length)
        state.done_event = self.env.event()
        state.last_activity_ns = self.env.now
        ep.sends[seq] = state
        self.pin_mgr.comm_started(region)
        rndv = Rndv(
            src_board=self.board, src_endpoint=ep.id, dst_endpoint=dst_endpoint,
            seq=seq, match_info=match_info, msg_length=region.total_length,
            sender_region=rid,
        )
        state.rndv = rndv
        if self.config.pinning_mode.overlapped:
            # Figure 5: the rndv leaves first; the pin proceeds inside the
            # syscall while the rendezvous round-trip is in flight.  Pull
            # requests arriving before enough pages are pinned are dropped
            # in the bottom half (overlap miss) and re-requested.
            yield from self._xmit(ctx, dst_board, rndv)
            self.trace(ep, "send_rndv", seq=seq, overlapped=True)
            self._start_send_watchdog(ep, state)
            ok = yield from self._acquire_pinned_timed(ctx, state.span,
                                                      region, "send")
            if not ok and not state.done:
                ok = yield from self._send_fallback(ctx, ep, state)
            if not ok:
                if not state.done:
                    yield from self._abort_send(ctx, ep, state)
                return seq
            self.trace(ep, "send_pinned", seq=seq)
        else:
            ok = yield from self._acquire_pinned_timed(ctx, state.span,
                                                      region, "send")
            if not ok:
                ok = yield from self._send_fallback(ctx, ep, state)
            if not ok:
                yield from self._abort_send(ctx, ep, state)
                return seq
            self.trace(ep, "send_pinned", seq=seq)
            yield from self._xmit(ctx, dst_board, rndv)
            self.trace(ep, "send_rndv", seq=seq, overlapped=False)
            self._start_send_watchdog(ep, state)
        return seq

    def _region_mapped(self, region: UserRegion) -> bool:
        """Are all of the region's segments still backed by VMAs?"""
        return all(
            region.aspace.is_mapped_range(seg.va, seg.length)
            for seg in region.segments
        )

    def _send_fallback(self, ctx: ExecContext, ep: DriverEndpoint,
                       state: _SendState) -> Generator:
        """Degrade a send whose region cannot be pinned to copy-through.

        The data is copied once into the statically-pinned eager buffers
        (exactly the Section 2.2 intermediate-buffer path) and pull requests
        are served from that snapshot, so persistent pin failure costs one
        extra copy instead of aborting the request.  Returns False when the
        addresses are invalid (nothing to copy), also when the application
        unmaps the buffer while the copy is under way.
        """
        region = state.region
        if region.destroyed or not self._region_mapped(region):
            return False
        yield from ctx.memcpy(region.total_length)
        try:
            region.bounce = b"".join(
                region.aspace.read(seg.va, seg.length)
                for seg in region.segments
            )
        except BadAddress:
            return False
        self.counters.incr("pin_fallback_send")
        self.trace(ep, "pin_fallback_send", seq=state.seq)
        return True

    def _start_send_watchdog(self, ep: DriverEndpoint,
                             state: _SendState) -> None:
        self.env.process(self._send_watchdog(ep, state),
                         name=f"omx.sendwd.{state.seq}")

    def _send_watchdog(self, ep: DriverEndpoint,
                       state: _SendState) -> Generator:
        """Send-side liveness: retransmit the rndv, eventually give up.

        The sender's only progress signal is the stream of pull requests for
        its region.  After a quiet round the rndv is retransmitted (the
        receiver dedups duplicates and replays a lost notify); after
        ``max_resend_rounds`` quiet rounds the send completes with a
        "timeout" status so the library is never left hanging.
        """
        dead_rounds = 0
        marker = state.last_activity_ns
        while not state.done:
            delay = self.config.resend_delay_ns(dead_rounds, key=state.seq)
            timer = self.env.timeout(delay)
            result = yield self.env.race(state.done_event, timer)
            timer.cancel()  # recycle the loser; no-op if it fired
            if state.done or result is state.done_event:
                return
            if state.last_activity_ns == marker:
                dead_rounds += 1
                if dead_rounds >= self.config.max_resend_rounds:
                    ctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
                    yield from self._give_up_send(ctx, ep, state)
                    return
                self.counters.incr("rndv_retransmit")
                ctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
                yield from self._xmit(ctx, state.dst_board, state.rndv)
            else:
                dead_rounds = 0
            marker = state.last_activity_ns

    def _give_up_send(self, ctx: ExecContext, ep: DriverEndpoint,
                      state: _SendState) -> Generator:
        state.done = True
        if state.done_event is not None and not state.done_event.triggered:
            state.done_event.succeed()
        if state.span is not None:
            self.spans.end(state.span, self.env.now, status="timeout")
        ep.sends.pop(state.seq, None)
        yield from self.pin_mgr.comm_done(ctx, state.region)
        ep.post_event(SendLargeDone(seq=state.seq, status="timeout"))
        self.counters.incr("send_timeout")
        self.trace(ep, "send_timeout", seq=state.seq)

    def _acquire_pinned_timed(self, ctx: ExecContext, parent: Span | None,
                              region: UserRegion, side: str) -> Generator:
        """acquire_pinned wrapped in a ``pin`` span + pin-wait histogram.

        Transient pin failures (injected ENOMEM, a notifier cancellation
        racing the pin) are retried up to ``PIN_RETRY_MAX`` times with a
        doubling backoff; regions whose addresses are genuinely unmapped
        fail immediately, preserving the error path.
        """
        start = self.env.now
        pin_span = self.spans.begin("pin", start, parent=parent,
                                    source=self.board, pages=region.npages)
        ok = yield from self.pin_mgr.acquire_pinned(ctx, region)
        attempt = 0
        while (not ok and attempt < PIN_RETRY_MAX
               and not region.destroyed and not region.pin_denied
               and self._region_mapped(region)):
            yield self.env.timeout(PIN_RETRY_BACKOFF_NS << attempt)
            attempt += 1
            self.counters.incr("pin_retry")
            ok = yield from self.pin_mgr.acquire_pinned(ctx, region)
        self.spans.end(pin_span, self.env.now, ok=ok)
        if ok:
            hist = (self._m_pin_wait_send if side == "send"
                    else self._m_pin_wait_recv)
            hist.observe(self.env.now - start)
        return ok

    def _abort_send(self, ctx: ExecContext, ep: DriverEndpoint,
                    state: _SendState) -> Generator:
        state.done = True
        if state.done_event is not None and not state.done_event.triggered:
            state.done_event.succeed()
        if state.span is not None:
            self.spans.end(state.span, self.env.now, status="error")
        del ep.sends[state.seq]
        yield from self.pin_mgr.comm_done(ctx, state.region)
        ep.post_event(SendLargeDone(seq=state.seq, status="error"))
        self.counters.incr("send_aborted")

    # -------------------------------------------------------------- receive side
    def submit_recv_large(self, ctx: ExecContext, ep: DriverEndpoint,
                          rid: int, rndv: Rndv) -> Generator:
        """Syscall body: the library matched a rendezvous; start pulling."""
        region = ep.regions[rid]
        if region.total_length < rndv.msg_length:
            raise ValueError(
                f"recv region {region.total_length} B < message {rndv.msg_length} B"
            )
        handle = ep.new_handle()
        chunk = DATA_FRAME_PAYLOAD
        nchunks = max(1, (rndv.msg_length + chunk - 1) // chunk)
        block_chunks = PULL_BLOCK // chunk
        state = _PullState(
            handle=handle, region=region, src_board=rndv.src_board,
            src_endpoint=rndv.src_endpoint, sender_region=rndv.sender_region,
            sender_seq=rndv.seq, length=rndv.msg_length, nchunks=nchunks,
            chunk_bytes=chunk, block_chunks=block_chunks,
        )
        state.received = [False] * nchunks
        state.last_request_ns = [-1] * nchunks
        state.nblocks = (nchunks + block_chunks - 1) // block_chunks
        state.done_event = self.env.event()
        state.span = self.spans.begin("rndv", self.env.now, source=self.board,
                                      side="recv", handle=handle,
                                      bytes=rndv.msg_length)
        ep.pulls[handle] = state
        self.pin_mgr.comm_started(region)

        if self.config.pinning_mode.overlapped:
            # Figure 5: pull requests leave before the region is pinned; the
            # pin proceeds inside the syscall while replies stream in through
            # the bottom half.  Replies beyond the watermark are dropped.
            yield from self._request_initial_blocks(ctx, ep, state)
            self.env.process(self._pull_fallback_timer(ep, state),
                             name=f"omx.pulltimer.{handle}")
            ok = yield from self._acquire_pinned_timed(ctx, state.span,
                                                      region, "recv")
            if not ok and not state.done:
                ok = self._recv_fallback(ep, state)
            if not ok and not state.done:
                yield from self._finish_pull(ctx, ep, state, status="error")
                return handle
            # The pin caught up: immediately re-request anything we had to
            # drop while pages were still unpinned.
            recover = self._recoverable_misses(state)
            if recover and not state.done:
                state.missed.difference_update(recover)
                yield from self._rerequest_chunks(ctx, ep, state, recover)
            return handle
        else:
            ok = yield from self._acquire_pinned_timed(ctx, state.span,
                                                      region, "recv")
            if not ok:
                ok = self._recv_fallback(ep, state)
            if not ok:
                yield from self._finish_pull(ctx, ep, state, status="error")
                return handle
            self.trace(ep, "recv_pinned", handle=handle)
            yield from self._request_initial_blocks(ctx, ep, state)
        self.env.process(self._pull_fallback_timer(ep, state),
                         name=f"omx.pulltimer.{handle}")
        return handle

    def _request_initial_blocks(self, ctx: ExecContext, ep: DriverEndpoint,
                                state: _PullState) -> Generator:
        for _ in range(min(PULL_WINDOW, state.nblocks)):
            yield from self._request_block(ctx, ep, state, state.next_block)
            state.next_block += 1

    def _request_block(self, ctx: ExecContext, ep: DriverEndpoint,
                       state: _PullState, block: int) -> Generator:
        lo_chunk = block * state.block_chunks
        hi_chunk = min(lo_chunk + state.block_chunks, state.nchunks)
        offset = lo_chunk * state.chunk_bytes
        length = min(state.length - offset,
                     (hi_chunk - lo_chunk) * state.chunk_bytes)
        for c in range(lo_chunk, hi_chunk):
            state.last_request_ns[c] = self.env.now
        state.requested_chunks = max(state.requested_chunks, hi_chunk)
        if self.spans.enabled and block not in state.block_spans:
            state.block_spans[block] = self.spans.begin(
                f"pull[{block}]", self.env.now, parent=state.span,
                source=self.board, offset=offset, length=length,
            )
        pkt = PullRequest(
            src_board=self.board, src_endpoint=ep.id,
            dst_endpoint=state.src_endpoint, handle=state.handle,
            sender_region=state.sender_region, offset=offset, length=length,
        )
        yield from self._xmit(ctx, state.src_board, pkt)
        self.trace(ep, "pull_request", handle=state.handle, offset=offset,
                   length=length)

    def _rerequest_chunks(self, ctx: ExecContext, ep: DriverEndpoint,
                          state: _PullState, chunks: list[int]) -> Generator:
        """Re-request contiguous runs of missing chunks (optimistic or timer)."""
        runs: list[tuple[int, int]] = []
        for c in chunks:
            if runs and runs[-1][1] == c:
                runs[-1] = (runs[-1][0], c + 1)
            else:
                runs.append((c, c + 1))
        for lo, hi in runs:
            offset = lo * state.chunk_bytes
            length = min(state.length - offset, (hi - lo) * state.chunk_bytes)
            for c in range(lo, hi):
                state.last_request_ns[c] = self.env.now
            pkt = PullRequest(
                src_board=self.board, src_endpoint=ep.id,
                dst_endpoint=state.src_endpoint, handle=state.handle,
                sender_region=state.sender_region, offset=offset,
                length=length, resend=True,
            )
            yield from self._xmit(ctx, state.src_board, pkt)
            self.counters.incr("pull_rerequest")

    def _recoverable_misses(self, state: _PullState) -> list[int]:
        """Chunks dropped on a local overlap miss whose pages are pinned now."""
        if state.bounce is not None:
            # The bounce buffer accepts any chunk: everything is recoverable.
            return [c for c in sorted(state.missed) if not state.received[c]]
        return [
            c
            for c in sorted(state.missed)
            if not state.received[c]
            and state.region.covers(*state.chunk_range(c))
        ]

    def _recv_fallback(self, ep: DriverEndpoint, state: _PullState) -> bool:
        """Degrade a receive whose region cannot be pinned to copy-through.

        Pull replies land in a kernel bounce buffer (the statically-pinned
        intermediate-buffer path of Section 2.2) and are scattered to the
        user buffers through the page table at completion.
        """
        region = state.region
        if region.destroyed or not self._region_mapped(region):
            return False
        # Seed the bounce with the buffer's current contents: chunks that
        # landed in the user pages before the pin failure (overlapped mode)
        # are marked received and never re-requested, so the completion-time
        # scatter must not wipe them.
        state.bounce = bytearray(b"".join(
            region.aspace.read(seg.va, seg.length) for seg in region.segments
        ))[:state.length]
        self.counters.incr("pin_fallback_recv")
        self.trace(ep, "pin_fallback_recv", handle=state.handle)
        return True

    def _pull_fallback_timer(self, ep: DriverEndpoint,
                             state: _PullState) -> Generator:
        """Last-resort retransmission (the paper's 1 s timeout).

        Consecutive unproductive rounds stretch the timeout exponentially
        (``resend_delay_ns``), so a congested or bursty-lossy fabric sees
        fewer redundant retransmissions than the paper's fixed timer.
        """
        dead_rounds = 0
        while not state.done:
            delay = self.config.resend_delay_ns(dead_rounds, key=state.handle)
            timer = self.env.timeout(delay)
            result = yield self.env.race(state.done_event, timer)
            timer.cancel()  # recycle the loser; no-op if it fired
            if state.done or result is state.done_event:
                return
            if state.bytes_received == state.progress_marker:
                dead_rounds += 1
                if dead_rounds >= self.config.max_resend_rounds:
                    ctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
                    yield from self._finish_pull(ctx, ep, state, status="timeout")
                    self.counters.incr("pull_gave_up")
                    return
                missing = state.unreceived()
                if missing:
                    self.counters.incr("pull_timeout_resend")
                    ctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
                    for c in missing:
                        state.last_request_ns[c] = -(10**18)  # force
                    yield from self._rerequest_chunks(ep=ep, ctx=ctx,
                                                      state=state, chunks=missing)
            else:
                dead_rounds = 0
            state.progress_marker = state.bytes_received

    # ------------------------------------------------------------------ RX path
    def _rx_fusable(self, frame: EthernetFrame) -> bool:
        """May the BH fuse its per-packet charge into this frame's handler?

        Only for packet types whose handler performs no time-sensitive
        action before its first ``ctx.charge`` — then the fused charge
        reproduces every completion instant exactly:

        * ``EagerFrag`` / ``Rndv``: pure dedup/log lookups precede the
          first charge.
        * ``PullReply``: safe only in overlapped mode, where the
          ``overlap_check_ns`` charge precedes the pin-watermark ``covers``
          check; in other modes the covers read would move earlier and
          could race a concurrent MMU invalidation.
        * ``PullRequest`` is excluded: it stamps ``last_activity_ns`` from
          ``env.now`` before charging.  ``Notify``/``Liback`` are excluded:
          they complete library events whose wakeup instants must not move.

        Marks and spans record pre-charge timestamps, so fusion is off
        whenever the cluster's trace stream records (all chaos/digest runs).
        ``_fusable`` holds the classes this rule admits for this driver.
        """
        return isinstance(frame.payload, self._fusable)

    def _rx(self, frame: EthernetFrame, ctx: ExecContext) -> Generator:
        pkt = frame.payload
        if not isinstance(pkt, OmxPacket):
            self.counters.incr("rx_bogus")
            return
        ep = self.endpoints.get(pkt.dst_endpoint)
        if ep is None:
            self.counters.incr("rx_no_endpoint")
            return
        if isinstance(pkt, EagerFrag):
            yield from self._rx_eager(ctx, ep, pkt)
        elif isinstance(pkt, Liback):
            self._rx_liback(ep, pkt)
        elif isinstance(pkt, Rndv):
            yield from ctx.charge(200)
            yield from self._rx_rndv(ctx, ep, pkt)
        elif isinstance(pkt, PullRequest):
            yield from self._rx_pull_request(ctx, ep, pkt)
        elif isinstance(pkt, PullReply):
            yield from self._rx_pull_reply(ctx, ep, pkt)
        elif isinstance(pkt, Notify):
            yield from self._rx_notify(ctx, ep, pkt)
        else:  # pragma: no cover - exhaustiveness guard
            self.counters.incr("rx_unknown_type")

    def _rx_rndv(self, ctx: ExecContext, ep: DriverEndpoint,
                 pkt: Rndv) -> Generator:
        """Deliver a rendezvous to the library, deduplicating retransmits.

        The sender's watchdog retransmits its rndv when no pull requests
        arrive.  A duplicate of an in-flight rendezvous is dropped (the pull
        timer recovers lost requests); a duplicate of a *completed* one means
        the notify was lost, so it is replayed from the log.
        """
        log = ep._rndv_log.setdefault((pkt.src_board, pkt.src_endpoint), {})
        entry = log.get(pkt.seq)
        if entry is None:
            log[pkt.seq] = "active"
            ep.post_event(RndvEvent(rndv=pkt))
        elif isinstance(entry, Notify):
            self.counters.incr("notify_replayed")
            self.trace(ep, "notify_replayed", seq=pkt.seq)
            yield from self._xmit(ctx, pkt.src_board, entry)
        else:
            self.counters.incr("rndv_duplicate")

    def _rx_eager(self, ctx: ExecContext, ep: DriverEndpoint,
                  pkt: EagerFrag) -> Generator:
        peer = (pkt.src_board, pkt.src_endpoint)
        seen = ep._seen_eager.setdefault(peer, set())
        if pkt.seq in seen:
            # Duplicate of an already-delivered message: re-ack it.
            yield from self._xmit_liback(ctx, ep, pkt)
            self.counters.incr("eager_duplicate")
            return
        # Copy the fragment into the endpoint's receive ring.
        yield from ctx.memcpy(len(pkt.data))
        key = (pkt.src_board, pkt.src_endpoint, pkt.seq)
        frags = ep._reassembly.setdefault(key, {})
        frags[pkt.frag_index] = pkt.data
        if len(frags) < pkt.nfrags:
            return
        data = b"".join(frags[i] for i in range(pkt.nfrags))
        del ep._reassembly[key]
        seen.add(pkt.seq)
        yield from self._xmit_liback(ctx, ep, pkt)
        ep.post_event(
            RecvEagerEvent(
                src_board=pkt.src_board, src_endpoint=pkt.src_endpoint,
                match_info=pkt.match_info, seq=pkt.seq, data=data,
            )
        )
        self.counters.incr("eager_received")

    def _xmit_liback(self, ctx: ExecContext, ep: DriverEndpoint,
                     pkt: EagerFrag) -> Generator:
        ack = Liback(src_board=self.board, src_endpoint=ep.id,
                     dst_endpoint=pkt.src_endpoint, seq=pkt.seq)
        yield from self._xmit(ctx, pkt.src_board, ack)

    def _rx_liback(self, ep: DriverEndpoint, pkt: Liback) -> None:
        state = ep.eager_tx.pop(pkt.seq, None)
        if state is not None and state.acked and not state.acked.triggered:
            state.acked.succeed()

    def _rx_pull_request(self, ctx: ExecContext, ep: DriverEndpoint,
                         pkt: PullRequest) -> Generator:
        """Sender side: stream pull replies for the requested range.

        With overlapped pinning the send region may not be fully pinned yet;
        we serve the pinned prefix and drop the rest of the request — the
        receiver re-requests it (overlap-miss, Section 3.3/4.3).

        Replies to an explicit *resend* request are duplicated frame-by-frame.
        A retransmitted pull means the first exchange was already lost once;
        under a correlated (e.g. strictly periodic) loss pattern a
        single-frame endgame can otherwise phase-lock — request passes, its
        lone reply is the next matched frame and is dropped, forever — until
        the bounded retransmit gives up.  Two back-to-back copies cannot both
        be claimed by any periodic pattern, so recovery always converges.
        """
        region = ep.regions.get(pkt.sender_region)
        if region is None:
            self.counters.incr("pull_req_unknown_region")
            return
        # Progress signal for the send-side watchdog: the peer is pulling.
        for s in ep.sends.values():
            if s.region is region and s.dst_board == pkt.src_board:
                s.last_activity_ns = self.env.now
        cfg = self.config
        offset = pkt.offset
        end = pkt.offset + pkt.length
        served_fallback = False
        while offset < end:
            chunk = min(DATA_FRAME_PAYLOAD, end - offset)
            if cfg.pinning_mode.overlapped:
                yield from ctx.charge(cfg.overlap_check_ns)
            if not region.covers(offset, chunk):
                if region.bounce is not None:
                    # Copy-through degradation: the region could not be
                    # pinned; serve from the kernel snapshot instead.
                    data = region.bounce[offset : offset + chunk]
                    served_fallback = True
                else:
                    self.counters.incr("overlap_miss_send")
                    self.counters.incr("pull_req_dropped_bytes", end - offset)
                    self.trace(ep, "overlap_miss_send", offset=offset)
                    return
            else:
                data = region.read(offset, chunk)
            # Zero-copy send: the NIC DMAs from the pinned pages; the CPU
            # only builds the descriptor (cost inside _xmit).
            reply = PullReply(
                src_board=self.board, src_endpoint=ep.id,
                dst_endpoint=pkt.src_endpoint, handle=pkt.handle,
                offset=offset, data=data,
            )
            yield from self._xmit(ctx, pkt.src_board, reply)
            if pkt.resend:
                yield from self._xmit(ctx, pkt.src_board, reply)
                self.counters.incr("pull_resend_dup_replies")
            offset += chunk
        self.counters.incr("pull_req_served")
        if served_fallback:
            self.counters.incr("pull_served_fallback")

    def _rx_pull_reply(self, ctx: ExecContext, ep: DriverEndpoint,
                       pkt: PullReply) -> Generator:
        state = ep.pulls.get(pkt.handle)
        if state is None or state.done:
            self.counters.incr("pull_reply_stale")
            return
        cfg = self.config
        if cfg.pinning_mode.overlapped:
            yield from ctx.charge(cfg.overlap_check_ns)
        chunk_idx = pkt.offset // state.chunk_bytes
        if state.received[chunk_idx]:
            # Checked before the watermark so that fault-injected duplicates
            # of delivered chunks never count as overlap misses.
            self.counters.incr("pull_reply_duplicate")
            return
        if state.bounce is None and not state.region.covers(
            pkt.offset, len(pkt.data)
        ):
            # Receive-side overlap miss: drop the packet (Section 3.3) and
            # remember the chunk so it is re-requested once pinned.
            state.missed.add(chunk_idx)
            self.counters.incr("overlap_miss_recv")
            self.trace(ep, "overlap_miss_recv", offset=pkt.offset)
            return
        # Copy into the user region: CPU memcpy in BH context, or I/OAT.
        copy_span = None
        if self.spans.enabled:
            block_span = state.block_spans.get(chunk_idx // state.block_chunks)
            copy_span = self.spans.begin(
                "copy", self.env.now,
                parent=block_span if block_span is not None else state.span,
                source=self.board, offset=pkt.offset, bytes=len(pkt.data),
            )
        if state.bounce is not None:
            # Copy-through degradation: land in the kernel bounce buffer;
            # scattered to the user pages at completion.
            yield from ctx.memcpy(len(pkt.data))
            state.bounce[pkt.offset : pkt.offset + len(pkt.data)] = pkt.data
        else:
            use_ioat = cfg.use_ioat and self.kernel.host.ioat is not None
            if use_ioat:
                yield from ctx.charge(self.kernel.host.ioat.spec.submit_ns)
            else:
                yield from ctx.memcpy(len(pkt.data))
            # The charge above yielded: a concurrent pin failure may have
            # rolled the watermark back (or switched this pull to bounce
            # mode) underneath us.  Re-validate before touching the pages —
            # the zero-copy rule of re-checking the target under the lock.
            if state.bounce is not None:
                state.bounce[pkt.offset : pkt.offset + len(pkt.data)] = \
                    pkt.data
            elif not state.region.covers(pkt.offset, len(pkt.data)):
                state.missed.add(chunk_idx)
                self.counters.incr("overlap_miss_recv")
                self.trace(ep, "overlap_miss_recv", offset=pkt.offset)
                if copy_span is not None:
                    self.spans.end(copy_span, self.env.now, status="miss")
                return
            else:
                state.region.write(pkt.offset, pkt.data)
                if use_ioat:
                    dma = self.env.process(
                        self.kernel.host.ioat.copy(len(pkt.data)),
                        name="omx.ioat")
                    state.dma_events.append(dma)
        if copy_span is not None:
            self.spans.end(copy_span, self.env.now)
        state.mark_received(chunk_idx)
        state.bytes_received += len(pkt.data)
        self.counters.incr("pull_bytes", len(pkt.data))

        # Optimistic re-request (paper footnote 4): a gap below this chunk
        # means earlier packets were lost or dropped on an overlap miss.
        missing = state.evidently_lost(chunk_idx)
        if state.missed:
            # Also recover chunks we dropped ourselves once the watermark
            # covers them again.
            union = set(missing)
            union.update(self._recoverable_misses(state))
            state.missed.difference_update(union)
            missing = sorted(union)
        if missing:
            yield from self._rerequest_chunks(ctx, ep, state, missing)

        block = chunk_idx // state.block_chunks
        if state.block_complete(block):
            bspan = state.block_spans.pop(block, None)
            if bspan is not None:
                self.spans.end(bspan, self.env.now)
            if state.next_block < state.nblocks:
                yield from self._request_block(ctx, ep, state, state.next_block)
                state.next_block += 1

        if state.bytes_received >= state.length:
            self.env.process(self._complete_pull(ep, state),
                             name=f"omx.pullfin.{state.handle}")

    def _complete_pull(self, ep: DriverEndpoint, state: _PullState) -> Generator:
        """Finisher: wait for outstanding DMA, send notify, report completion."""
        if state.done:
            return
        state.done = True
        if state.dma_events:
            yield self.env.all_of(state.dma_events)
        ctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
        if state.bounce is not None:
            # Copy-through degradation: scatter the kernel bounce buffer to
            # the user buffers through the page table (the region was never
            # pinned).  The mapping can vanish underneath us — then the
            # receive really has failed.
            try:
                yield from ctx.memcpy(state.length)
                pos = 0
                for seg in state.region.segments:
                    take = min(seg.length, state.length - pos)
                    if take <= 0:
                        break
                    state.region.aspace.write(
                        seg.va, memoryview(state.bounce)[pos : pos + take]
                    )
                    pos += take
            except (BadAddress, OutOfMemory):
                self.counters.incr("pin_fallback_scatter_failed")
                yield from self._finish_pull(ctx, ep, state, status="error")
                return
        notify = Notify(
            src_board=self.board, src_endpoint=ep.id,
            dst_endpoint=state.src_endpoint, handle=state.handle,
            sender_region=state.sender_region, seq=state.sender_seq,
        )
        nspan = self.spans.begin("notify", self.env.now, parent=state.span,
                                 source=self.board)
        yield from self._xmit(ctx, state.src_board, notify)
        self.spans.end(nspan, self.env.now)
        self.trace(ep, "notify_sent", handle=state.handle)
        # Log the notify so a retransmitted rndv (ours was completed but the
        # notify got lost) can be answered by replaying it.
        log = ep._rndv_log.setdefault((state.src_board, state.src_endpoint), {})
        log[state.sender_seq] = notify
        yield from self._finish_pull(ctx, ep, state, status="ok")

    def _finish_pull(self, ctx: ExecContext, ep: DriverEndpoint,
                     state: _PullState, status: str) -> Generator:
        state.done = True
        if state.span is not None:
            self.spans.end(state.span, self.env.now, status=status)
        if state.done_event is not None and not state.done_event.triggered:
            state.done_event.succeed()
        ep.pulls.pop(state.handle, None)
        yield from self.pin_mgr.comm_done(ctx, state.region)
        ep.post_event(RecvLargeDone(handle=state.handle, status=status))
        if status == "ok":
            self.counters.incr("recv_large_done")

    def _rx_notify(self, ctx: ExecContext, ep: DriverEndpoint,
                   pkt: Notify) -> Generator:
        state = ep.sends.get(pkt.seq)
        if state is None or state.done:
            self.counters.incr("notify_stale")
            return
        state.done = True
        if state.done_event is not None and not state.done_event.triggered:
            state.done_event.succeed()
        del ep.sends[pkt.seq]
        if state.span is not None:
            self.spans.end(state.span, self.env.now, status="ok")
        self.trace(ep, "notify_received", seq=pkt.seq)
        # Unpin (policy-dependent) as deferred kernel work on the app core,
        # so the bottom half is not blocked by unpin cost.
        region = state.region

        def finish():
            fctx = AcquiringContext(self.env, ep.proc.core, PRIO_KERNEL)
            yield from self.pin_mgr.comm_done(fctx, region)
            ep.post_event(SendLargeDone(seq=pkt.seq, status="ok"))
            self.counters.incr("send_large_done")

        self.env.process(finish(), name=f"omx.sendfin.{pkt.seq}")
        yield from ctx.charge(100)

    # ------------------------------------------------------------------ helpers
    def _xmit(self, ctx: ExecContext, dst_board: str, pkt: OmxPacket) -> Generator:
        yield from self.kernel.ethernet.xmit(
            ctx, dst_board, pkt, pkt.wire_payload_bytes
        )

    def trace(self, ep: DriverEndpoint, event: str, **detail) -> None:
        """Mark ``event`` on the trace stream, sourced ``{board}/ep{id}``."""
        if self.spans.enabled:
            self.spans.mark(self.env.now, f"{self.board}/ep{ep.id}", event,
                            **detail)
