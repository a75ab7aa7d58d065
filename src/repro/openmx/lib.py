"""The Open-MX user-space library: the MX-like API applications use.

Responsibilities split exactly as Figure 4 of the paper draws them:

* the library owns *communication requests*, matching, and the region cache
  (Section 3.2 argues this belongs in user-space);
* the driver owns *pinning* — the library never learns whether a region is
  pinned, only which integer descriptor names it.

The API is MX-flavoured: ``isend``/``irecv`` return request objects,
``wait`` spins on the completion doorbell while draining driver events
(matching rendezvous, issuing pulls, copying out eager data).  The spin
releases the core every ``poll_slice_ns``, which is what lets the driver's
deferred pinning work interleave on the same core — the blocking-wait
overlap the paper's Section 5 discussion centres on.
"""

from __future__ import annotations

import weakref
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.hw.cpu import PRIO_USER
from repro.kernel.context import ExecContext
from repro.kernel.kernel import UserProcess
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.openmx.driver import OpenMXDriver
from repro.openmx.events import (
    EagerSendFailed,
    RecvEagerEvent,
    RecvLargeDone,
    RndvEvent,
    SendLargeDone,
)
from repro.openmx.region_cache import RegionCache
from repro.openmx.regions import Segment
from repro.openmx.wire import Rndv

__all__ = ["MATCH_FULL_MASK", "OmxLib", "OmxRequest"]

MATCH_FULL_MASK = 0xFFFF_FFFF_FFFF_FFFF


@dataclass
class OmxRequest:
    """One outstanding communication."""

    kind: str  # "send" or "recv"
    va: int
    length: int
    match_info: int
    match_mask: int = MATCH_FULL_MASK
    blocking: bool = False
    done: bool = False
    status: str = "pending"
    received_length: int = 0
    region_id: int | None = None
    segments: tuple[Segment, ...] | None = None
    _cached_region: bool = False

    def matches(self, match_info: int) -> bool:
        return (match_info & self.match_mask) == (self.match_info & self.match_mask)


@dataclass
class _UnexpectedEager:
    event: RecvEagerEvent


@dataclass
class _UnexpectedRndv:
    rndv: Rndv


class OmxLib:
    """Per-process Open-MX endpoint handle."""

    def __init__(self, proc: UserProcess, driver: OpenMXDriver, endpoint_id: int):
        self.proc = proc
        self.driver = driver
        self.config = driver.config
        self.env = driver.env
        self.ep = driver.open_endpoint(proc, endpoint_id)
        self.endpoint_id = endpoint_id
        self.board = driver.board
        mode = self.config.pinning_mode
        if mode is PinningMode.PERMANENT:
            capacity = None  # never evict: buffers stay pinned forever
        elif mode.cached:
            capacity = self.config.region_cache_capacity
        else:
            capacity = 0  # no caching at all
        self._use_cache = capacity is None or capacity > 0
        range_gen = None
        if self.config.region_cache_validate:
            aspace = proc.aspace
            range_gen = lambda segments: tuple(
                aspace.range_generation(s.va, s.length) for s in segments)
        self.cache = RegionCache(
            self.config,
            declare=self._declare_region,
            destroy=self._destroy_region,
            is_idle=self._region_is_idle,
            capacity=capacity,
            counters=driver.counters,
            range_gen=range_gen,
        )
        self._posted: list[OmxRequest] = []
        self._unexpected: list[_UnexpectedEager | _UnexpectedRndv] = []
        self._send_waiting: dict[int, OmxRequest] = {}
        self._recv_waiting: dict[int, OmxRequest] = {}
        # Eager sends complete locally (MX semantics), but the driver's
        # bounded retransmit loop can still fail them later; track the
        # requests weakly so a caller who kept theirs sees the status flip.
        self._eager_sent: weakref.WeakValueDictionary[int, OmxRequest] = (
            weakref.WeakValueDictionary()
        )
        # Regions handed out by the cache but whose submit syscall has not
        # yet reached comm_started look idle to the driver; lease counts
        # bridge that window so a concurrent get() cannot evict them.
        self._region_leases: dict[int, int] = {}

    # -- region plumbing ---------------------------------------------------------
    def _declare_region(self, ctx: ExecContext,
                        segments: tuple[Segment, ...]) -> Generator:
        rid = yield from self.driver.declare_region(ctx, self.ep, segments)
        return rid

    def _destroy_region(self, ctx: ExecContext, rid: int) -> Generator:
        yield from self.driver.destroy_region(ctx, self.ep, rid)

    def _region_is_idle(self, rid: int) -> bool:
        if self._region_leases.get(rid):
            return False
        region = self.ep.regions.get(rid)
        return region is None or region.active_comms == 0

    def _lease_region(self, rid: int) -> None:
        self._region_leases[rid] = self._region_leases.get(rid, 0) + 1

    def _unlease_region(self, rid: int) -> None:
        count = self._region_leases.get(rid, 0) - 1
        if count > 0:
            self._region_leases[rid] = count
        else:
            self._region_leases.pop(rid, None)

    def _get_region(self, ctx: ExecContext, va: int, length: int,
                    req: OmxRequest,
                    segments: tuple[Segment, ...] | None = None) -> Generator:
        if segments is None:
            segments = (Segment(va, length),)
        if self._use_cache:
            rid = yield from self.cache.get(ctx, segments)
            req._cached_region = True
        else:
            rid = yield from self._declare_region(ctx, segments)
            req._cached_region = False
        # Held until the submit syscall reaches comm_started; callers
        # release it right after their submit returns (try/finally).
        self._lease_region(rid)
        req.region_id = rid
        return rid

    def _release_region(self, ctx: ExecContext, req: OmxRequest) -> Generator:
        """After completion: uncached modes undeclare the per-comm region."""
        if req.region_id is not None and not req._cached_region:
            if req.region_id in self.ep.regions:
                yield from self._destroy_region(ctx, req.region_id)
        req.region_id = None

    # -- API -----------------------------------------------------------------------
    def isend(self, va: int, length: int, dst_board: str, dst_endpoint: int,
              match_info: int, blocking: bool = False) -> Generator:
        """Process: start a send; returns an :class:`OmxRequest`.

        ``blocking`` declares that the caller will wait immediately; with
        ``adaptive_overlap`` configured, only such requests use overlapped
        pinning.
        """
        req = OmxRequest(kind="send", va=va, length=length,
                         match_info=match_info, blocking=blocking)
        ctx = self.proc.user_context()
        if length <= self.config.eager_max:
            data = self.proc.aspace.read(va, length) if length else b""

            def body(sctx):
                seq = yield from self.driver.send_eager(
                    sctx, self.ep, dst_board, dst_endpoint, match_info, data
                )
                return seq

            seq = yield from self.proc.syscall(body)
            # MX semantics: an eager send completes locally once buffered.
            req.done = True
            req.status = "ok"
            self._eager_sent[seq] = req
            return req
        yield from self._get_region(ctx, va, length, req)

        def body(sctx):
            seq = yield from self.driver.submit_send_large(
                sctx, self.ep, req.region_id, dst_board, dst_endpoint,
                match_info, blocking=req.blocking,
            )
            return seq

        try:
            seq = yield from self.proc.syscall(body)
        finally:
            self._unlease_region(req.region_id)
        self._send_waiting[seq] = req
        return req

    def isendv(self, segments: list[tuple[int, int]], dst_board: str,
               dst_endpoint: int, match_info: int,
               blocking: bool = False) -> Generator:
        """Process: vectorial send — one region over several (va, length)
        segments (Section 3.2: "regions may be vectorial"; the whole
        segment list crosses into the kernel once, at declaration)."""
        segs = tuple(Segment(va, length) for va, length in segments)
        total = sum(s.length for s in segs)
        req = OmxRequest(kind="send", va=segs[0].va, length=total,
                         match_info=match_info, blocking=blocking)
        ctx = self.proc.user_context()
        if total <= self.config.eager_max:
            data = b"".join(
                self.proc.aspace.read(s.va, s.length) for s in segs
            )

            def body(sctx):
                seq = yield from self.driver.send_eager(
                    sctx, self.ep, dst_board, dst_endpoint, match_info, data
                )
                return seq

            seq = yield from self.proc.syscall(body)
            req.done = True
            req.status = "ok"
            self._eager_sent[seq] = req
            return req
        yield from self._get_region(ctx, segs[0].va, total, req, segments=segs)

        def body(sctx):
            seq = yield from self.driver.submit_send_large(
                sctx, self.ep, req.region_id, dst_board, dst_endpoint,
                match_info, blocking=req.blocking,
            )
            return seq

        try:
            seq = yield from self.proc.syscall(body)
        finally:
            self._unlease_region(req.region_id)
        self._send_waiting[seq] = req
        return req

    def irecv(self, va: int, length: int, match_info: int,
              match_mask: int = MATCH_FULL_MASK,
              blocking: bool = False) -> Generator:
        """Process: post a receive; returns an :class:`OmxRequest`."""
        req = OmxRequest(kind="recv", va=va, length=length,
                         match_info=match_info, match_mask=match_mask,
                         blocking=blocking)
        yield from self._post_recv(req)
        return req

    def irecvv(self, segments: list[tuple[int, int]], match_info: int,
               match_mask: int = MATCH_FULL_MASK,
               blocking: bool = False) -> Generator:
        """Process: post a vectorial receive over (va, length) segments."""
        segs = tuple(Segment(va, length) for va, length in segments)
        total = sum(seg.length for seg in segs)
        req = OmxRequest(kind="recv", va=segs[0].va, length=total,
                         match_info=match_info, match_mask=match_mask,
                         blocking=blocking)
        req.segments = segs
        yield from self._post_recv(req)
        return req

    def _post_recv(self, req: OmxRequest) -> Generator:
        # Match against already-arrived unexpected messages first.
        for i, un in enumerate(self._unexpected):
            info = (un.event.match_info if isinstance(un, _UnexpectedEager)
                    else un.rndv.match_info)
            if req.matches(info):
                del self._unexpected[i]
                if isinstance(un, _UnexpectedEager):
                    yield from self._deliver_eager(req, un.event)
                else:
                    yield from self._start_pull(req, un.rndv)
                return
        self._posted.append(req)

    def wait(self, req: OmxRequest) -> Generator:
        """Process: block (spin) until the request completes; returns its
        status."""
        return self._spin(req)

    def wait_all(self, reqs: list[OmxRequest]) -> Generator:
        for req in reqs:
            yield from self.wait(req)

    def test(self, req: OmxRequest) -> Generator:
        """Process: advance progress once; returns ``req.done``."""
        yield from self._progress_drain()
        return req.done

    def progress(self) -> Generator:
        """Process: drain and handle all pending driver events."""
        yield from self._progress_drain()

    def wait_step(self) -> Generator:
        """Process: block for one poll slice (or until the doorbell rings).

        Building block for multi-request waits (``waitany``): one bounded
        spin, after which the caller re-checks its completion conditions.
        """
        return self._spin(None)

    def _spin(self, req: OmxRequest | None) -> Generator:
        """Poll slices until ``req`` completes and return its status; with
        ``req`` None, spin at most one slice.

        A slice holds the core at user priority until the doorbell rings or
        ``poll_slice_ns`` passes, then gives it back, so queued bottom-half
        work gets the core at every slice boundary.  A queued driver event
        is drained first (``req`` given) or ends the spin at once (None).
        Everything a slice touches is bound once per call, since a wait can
        spin for thousands of slices, and ``wait``/``wait_step`` hand this
        generator out as their own, so no delegating frame resumes with
        each slice.
        """
        ep = self.ep
        queue = ep.event_queue
        claim = self.proc.core.request
        env = self.env
        slice_ns = self.config.poll_slice_ns
        while True:
            if req is not None:
                if req.done:
                    return req.status
                if len(queue):
                    yield from self._progress_drain()
                    if req.done:
                        return req.status
            elif len(queue):
                return None
            doorbell = ep.refresh_doorbell()
            with claim(PRIO_USER) as r:
                yield r
                timer = env.timeout(slice_ns)
                yield env.race(doorbell, timer)
                timer.cancel()  # recycle the loser; no-op if it fired
            if req is None:
                return None

    def cancel(self, req: OmxRequest) -> bool:
        """Cancel a posted receive that has not matched yet (mx_cancel).

        Returns ``True`` if the request was still unmatched and is now
        terminal with status ``"cancelled"``.  Returns ``False`` if it
        already completed or already matched a sender — in that case the
        transfer machinery owns it and will drive it to a terminal status
        (the pull path's bounded give-up timer guarantees that).  This is
        how an application recovers a receive whose peer gave up: MX keeps
        no connection state, so the sender's local failure is never
        signalled to the receiver.
        """
        if req.done:
            return False
        if req in self._posted:
            self._posted.remove(req)
            req.done = True
            req.status = "cancelled"
            return True
        return False

    def has_unexpected(self, match_info: int, match_mask: int) -> bool:
        """Does the unexpected queue hold a message matching (info, mask)?"""
        for un in self._unexpected:
            info = (un.event.match_info if isinstance(un, _UnexpectedEager)
                    else un.rndv.match_info)
            if (info & match_mask) == (match_info & match_mask):
                return True
        return False

    def close(self) -> Generator:
        """Process: tear the endpoint down.

        Flushes the region cache (undeclaring and unpinning every cached
        region), destroys any remaining declared regions, and closes the
        kernel endpoint, detaching its MMU notifier.  Outstanding requests
        must have completed.
        """
        if self._send_waiting or self._recv_waiting:
            raise RuntimeError("close() with outstanding requests")
        ctx = self.proc.user_context()
        yield from self.cache.flush(ctx)
        for rid in list(self.ep.regions):
            if self.ep.regions[rid].active_comms == 0:
                yield from self._destroy_region(ctx, rid)
        self.ep.close()

    # -- progress engine ---------------------------------------------------------
    def _progress_drain(self) -> Generator:
        while True:
            ok, ev = self.ep.event_queue.try_get()
            if not ok:
                return
            yield from self._handle_event(ev)

    def _handle_event(self, ev) -> Generator:
        ctx = self.proc.user_context()
        if isinstance(ev, RecvEagerEvent):
            yield from ctx.charge(self.config.match_cost_ns)
            req = self._match_posted(ev.match_info)
            if req is None:
                self._unexpected.append(_UnexpectedEager(ev))
            else:
                yield from self._deliver_eager(req, ev)
        elif isinstance(ev, RndvEvent):
            yield from ctx.charge(self.config.match_cost_ns)
            req = self._match_posted(ev.rndv.match_info)
            if req is None:
                self._unexpected.append(_UnexpectedRndv(ev.rndv))
            else:
                yield from self._start_pull(req, ev.rndv)
        elif isinstance(ev, SendLargeDone):
            req = self._send_waiting.pop(ev.seq, None)
            if req is not None:
                req.done = True
                req.status = ev.status
                yield from self._release_region(ctx, req)
        elif isinstance(ev, RecvLargeDone):
            req = self._recv_waiting.pop(ev.handle, None)
            if req is not None:
                req.done = True
                req.status = ev.status
                yield from self._release_region(ctx, req)
        elif isinstance(ev, EagerSendFailed):
            req = self._eager_sent.pop(ev.seq, None)
            if req is not None:
                req.status = ev.status
        else:  # pragma: no cover - future event kinds
            raise TypeError(f"unknown driver event {ev!r}")

    def _match_posted(self, match_info: int) -> OmxRequest | None:
        for i, req in enumerate(self._posted):
            if req.matches(match_info):
                del self._posted[i]
                return req
        return None

    def _deliver_eager(self, req: OmxRequest, ev: RecvEagerEvent) -> Generator:
        if len(ev.data) > req.length:
            req.done = True
            req.status = "truncated"
            return
        ctx = self.proc.user_context()
        # Copy out of the kernel receive ring into the user buffer(s).
        yield from ctx.memcpy(len(ev.data))
        if req.segments is None:
            self.proc.aspace.write(req.va, ev.data)
        else:
            off = 0
            for seg in req.segments:
                chunk = min(seg.length, len(ev.data) - off)
                if chunk <= 0:
                    break
                self.proc.aspace.write(seg.va, ev.data[off:off + chunk])
                off += chunk
        req.received_length = len(ev.data)
        req.done = True
        req.status = "ok"

    def _start_pull(self, req: OmxRequest, rndv: Rndv) -> Generator:
        if rndv.msg_length > req.length:
            req.done = True
            req.status = "truncated"
            return
        ctx = self.proc.user_context()
        yield from self._get_region(ctx, req.va, req.length, req,
                                    segments=req.segments)

        def body(sctx):
            handle = yield from self.driver.submit_recv_large(
                sctx, self.ep, req.region_id, rndv, blocking=req.blocking
            )
            return handle

        try:
            handle = yield from self.proc.syscall(body)
        finally:
            self._unlease_region(req.region_id)
        req.received_length = rndv.msg_length
        self._recv_waiting[handle] = req
