"""The Open-MX user-space library: the MX-like API applications use.

Responsibilities split exactly as Figure 4 of the paper draws them:

* the library owns *communication requests*, matching, and the region cache
  (Section 3.2 argues this belongs in user-space);
* the driver owns *pinning* — the library never learns whether a region is
  pinned, only which integer descriptor names it.

The API is MX-flavoured: ``isend``/``irecv`` return request objects,
``wait`` spins on the completion doorbell while draining driver events
(matching rendezvous, issuing pulls, copying out eager data).  The spin
gives the core back at the first ``poll_slice_ns`` boundary at which
someone else is queued for it, which is what lets the driver's deferred
pinning work interleave on the same core — the blocking-wait overlap the
paper's Section 5 discussion centres on.  While nobody else wants the core
it keeps its claim across slice boundaries, and two waits of one lib
queued for the core hold it together, taking slices in turn (see
``OmxLib._spin``).
"""

from __future__ import annotations

import weakref
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.hw.cpu import PRIO_USER
from repro.kernel.context import ExecContext
from repro.kernel.kernel import UserProcess
from repro.openmx.config import (
    EAGER_MAX,
    MATCH_COST_NS,
    OpenMXConfig,
    PinningMode,
)
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
from repro.sim import Environment, Event, Request, Resource, Timeout

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


class _Hold:
    """A spin's claim on the core kept across poll slice boundaries, for
    the holder alone or for it and one partner waiter taking slices in
    turn (see :meth:`OmxLib._spin`).

    The holder waits on :attr:`over`.  It fires where the slice loop
    would end a slice of the hold: with None when that slice is the
    holder's, or, when it is the partner's, with a fresh claim queued for
    the holder after the partner has been handed the core.  A hold is a
    settler of its environment while open.

    A lone hold runs no event until its wake or doorbell.  A pair hold
    keeps the slice loop's *boundary chain*: a timer per slice and, at
    each boundary, a step where the loop's release was dispatched and
    one where its next grant was, the last making the next slice's timer
    (each step a bare event, or a plain call when nothing else is due in
    the tick; see :meth:`Environment.call_soon`).  Each timer so takes
    the place in its tick's dispatch order the loop's took.  Without it,
    pair holds on two hosts whose boundaries fall in the same ticks end
    in the order their wakes came, not the loop's (chaos seed 560's
    digest moves).
    """

    __slots__ = ("env", "res", "claim", "partner", "start", "slice_ns",
                 "doorbell", "wake", "timer", "hop", "k", "over", "made",
                 "settled")

    def __init__(self, env: Environment, res: Resource, claim: Request,
                 partner: Request | None, slice_ns: int, doorbell: Event):
        self.env = env
        self.res = res
        self.claim = claim
        self.partner = partner
        self.start = env.now
        self.slice_ns = slice_ns
        self.doorbell = doorbell
        self.timer: Timeout | None = None
        self.hop: Event | None = None
        self.k = 1  # the boundary the hold runs to (1 = the first)
        self.over = env.event()
        self.made = 1  # events made, from the holder's grant on
        self.settled = 0  # events credited by settle() so far
        doorbell.callbacks.append(self._rung)
        self.wake = res.arm_wake()
        if partner is None:
            self.wake.callbacks.append(self._woken)
        else:
            self._arm(slice_ns)
        env.settlers[self] = None

    def _arm(self, delay: int) -> None:
        self.timer = timer = self.env.timeout(delay)
        timer.callbacks.append(self._tick)
        self.made += 1

    def _step(self, callback) -> None:
        """One dispatch on, as the loop's next step at a boundary; at once
        if nothing else is due in this tick."""
        self.hop = self.env.call_soon(callback)
        if self.hop is not None:
            self.made += 1

    def _boundary(self) -> tuple[int, int]:
        """``(k, left)``: the first boundary at or after now is the
        hold's ``k``-th (at least the first), ``left`` ns from now."""
        start, slice_ns, now = self.start, self.slice_ns, self.env.now
        k = max(1, -((start - now) // slice_ns))
        return k, start + k * slice_ns - now

    def _woken(self, _wake: Event) -> None:
        """A lone hold's wake: end at the first boundary at or after it."""
        self.k, left = self._boundary()
        if left:
            self._arm(left)
        else:
            self._end(self.k)

    def _tick(self, _timer: Event) -> None:
        """Boundary ``k``'s timer: the loop's owner of slice ``k - 1``
        gives the core back one dispatch later."""
        self.timer = None
        if self.wake.triggered or self.doorbell.triggered:
            self._end(self.k)
        else:
            self._step(self._released)

    def _released(self, _hop: Event | None) -> None:
        self.hop = None
        if self.wake.triggered or self.doorbell.triggered:
            self._end(self.k)
        else:
            self._step(self._granted)

    def _granted(self, _hop: Event | None) -> None:
        """Where the loop granted slice ``k`` to the other waiter, which
        started that slice's timer."""
        self.hop = None
        self.k += 1
        self._arm(self.slice_ns)

    def _rung(self, _doorbell: Event) -> None:
        timer, hop = self.timer, self.hop
        k = self.k
        if timer is not None:
            # The last slice's timer, left cancelled as the loop leaves it.
            timer.callbacks.remove(self._tick)
            timer.cancel()
        elif hop is not None:
            hop.callbacks.clear()  # a boundary of the hold's in this tick
        else:
            k, left = self._boundary()
            if left:
                self.env.timeout(left).cancel()
                self.made += 1
        self._end(k)

    def _end(self, k: int) -> None:
        """End the hold with its ``k``-th slice."""
        cbs = self.doorbell.callbacks
        if cbs is not None:
            cbs.remove(self._rung)
        cbs = self.wake.callbacks
        if cbs:
            cbs.remove(self._woken)
        self.res.disarm_wake()
        env = self.env
        del env.settlers[self]
        # The loop's k slices made 3k events (a claim, a timer and a race
        # each); the hold made ``made``, ``over``, the wake if it fired and
        # the partner's grant on a hand-over.
        made = self.made + 1 + self.wake.triggered
        fresh = None
        if self.partner is not None and not k % 2:
            fresh = self.res.hand_over(self.claim, self.partner)
            made += 1
        env.events_processed += 3 * k - made - self.settled
        self.over.succeed(fresh)

    def settle(self) -> None:
        """Count, while open, the events the loop would have run by now:
        three per boundary passed, less those the hold has dispatched (all
        it made but a pending timer) and the wake if it has been."""
        dispatched = self.made - (self.timer is not None) - 1
        due = (3 * ((self.env.now - self.start) // self.slice_ns)
               - dispatched - self.wake.processed)
        self.env.events_processed += due - self.settled
        self.settled = due


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
        # A large send can complete while its submit syscall is still
        # pinning (an overlapped rndv leaves mid-syscall, Figure 5), and
        # another wait on this lib may drain its SendLargeDone before the
        # seq is registered: keep it here for _send to apply.
        self._send_done_early: dict[int, SendLargeDone] = {}
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
        # Core claims of this lib's waits still queued for the core, with
        # each wait's request and doorbell: a spin granted the core reads
        # them to hold it for two waiters (see _spin).
        self._waits: dict[Request, tuple[OmxRequest, Event]] = {}

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

    def _complete(self, ctx: ExecContext, req: OmxRequest,
                  status: str) -> Generator:
        """Finish a large request; uncached modes undeclare its region."""
        self._finish(req, status)
        if req.region_id is not None and not req._cached_region:
            if req.region_id in self.ep.regions:
                yield from self._destroy_region(ctx, req.region_id)
        req.region_id = None

    # -- API -----------------------------------------------------------------------
    def isend(self, va: int, length: int, dst_board: str, dst_endpoint: int,
              match_info: int) -> Generator:
        """Process: start a send; returns an :class:`OmxRequest`."""
        req = OmxRequest(kind="send", va=va, length=length,
                         match_info=match_info)
        # Segment rejects length 0: an empty message is an eager send of
        # no segments.
        segs = (Segment(va, length),) if length else ()
        return self._send(req, segs, dst_board, dst_endpoint, match_info)

    def isendv(self, segments: list[tuple[int, int]], dst_board: str,
               dst_endpoint: int, match_info: int) -> Generator:
        """Process: vectorial send — one region over several (va, length)
        segments (Section 3.2: "regions may be vectorial"; the whole
        segment list crosses into the kernel once, at declaration)."""
        segs = tuple(Segment(va, length) for va, length in segments)
        req = OmxRequest(kind="send", va=segs[0].va,
                         length=sum(s.length for s in segs),
                         match_info=match_info)
        return self._send(req, segs, dst_board, dst_endpoint, match_info)

    def _send(self, req: OmxRequest, segs: tuple[Segment, ...],
              dst_board: str, dst_endpoint: int,
              match_info: int) -> Generator:
        """The tail of :meth:`isend`/:meth:`isendv`: eager below
        ``EAGER_MAX``, else a rendezvous over a (cached) region."""
        if req.length <= EAGER_MAX:
            data = b"".join(
                self.proc.aspace.read(s.va, s.length) for s in segs
            )

            def body(sctx):
                seq = yield from self.driver.send_eager(
                    sctx, self.ep, dst_board, dst_endpoint, match_info, data
                )
                return seq

            seq = yield from self.proc.syscall(body)
            # MX semantics: an eager send completes locally once buffered.
            self._finish(req, "ok")
            self._eager_sent[seq] = req
            return req
        ctx = self.proc.user_context()
        yield from self._get_region(ctx, req.va, req.length, req,
                                    segments=segs)

        def body(sctx):
            seq = yield from self.driver.submit_send_large(
                sctx, self.ep, req.region_id, dst_board, dst_endpoint,
                match_info,
            )
            return seq

        try:
            seq = yield from self.proc.syscall(body)
        finally:
            self._unlease_region(req.region_id)
        done = self._send_done_early.pop(seq, None)
        if done is None:
            self._send_waiting[seq] = req
        else:
            yield from self._complete(ctx, req, done.status)
        return req

    def irecv(self, va: int, length: int, match_info: int,
              match_mask: int = MATCH_FULL_MASK) -> Generator:
        """Process: post a receive; returns an :class:`OmxRequest`."""
        req = OmxRequest(kind="recv", va=va, length=length,
                         match_info=match_info, match_mask=match_mask)
        yield from self._post_recv(req)
        return req

    def irecvv(self, segments: list[tuple[int, int]], match_info: int,
               match_mask: int = MATCH_FULL_MASK) -> Generator:
        """Process: post a vectorial receive over (va, length) segments."""
        segs = tuple(Segment(va, length) for va, length in segments)
        total = sum(seg.length for seg in segs)
        req = OmxRequest(kind="recv", va=segs[0].va, length=total,
                         match_info=match_info, match_mask=match_mask)
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
        """Spin on the doorbell until ``req`` completes and return its
        status; with ``req`` None, spin at most one poll slice.

        The spin is a loop of poll slices: claim the core at user
        priority, hold it until the doorbell rings or ``poll_slice_ns``
        passes, give it back.  A queued driver event is drained first
        (``req`` given) or ends the spin at once (None).  A slice boundary
        matters only if someone new is queued for the core there or a
        request has completed, so the spin keeps its claim across
        boundaries in one *hold* (:class:`_Hold`) that waits on the
        doorbell and on the core's wake (armed on the core's resource; a
        queued claim or :meth:`_finish` fires it).

        A spin granted the core with nobody queued holds it alone and runs
        no event until the wake or the doorbell.  One granted with exactly
        one other wait of this lib queued, on a pending request and the
        same untriggered doorbell, holds it for both: slice ``j`` of the
        hold is the holder's if ``j`` is even and the partner's if odd, as
        the slice loop passes the core between them, and only the loop's
        boundary chain of timers is kept (see :class:`_Hold`), not its
        claims, releases and races.  The doorbell ends a hold at once, in
        whichever slice it falls; in the partner's, the partner is handed
        the core (:meth:`Resource.hand_over`) and ends its own slice, and
        the holder waits behind it with a claim in the partner's old place
        in the queue.  A wake ends a hold at the first boundary
        ``start + k * poll_slice_ns`` at or after it, where the owner of
        slice ``k - 1`` gives the core back, the other waiter queued ahead
        of every claim of equal priority that came during the hold.  A
        hold adds the events its slices would have run (a claim, a timer
        and a race each) that it did not to ``env.events_processed``, when
        it ends and, while open, whenever ``run()`` returns, so the count
        does not depend on how the slices were run.  Everything else runs
        one plain slice: ``req`` None, a request that completed while its
        waiter was queued for the core, a doorbell that rang while it was,
        and any other set of queued claims, three waiters included.

        One limit, a *tie*.  A wake or doorbell in the very tick of a
        boundary is taken to come before the slice loop's release there,
        but the loop orders the two by their places in that tick's
        dispatch order, which a lone hold, having no boundary timer,
        cannot see: an act set off a zero-delay hop or more after the
        tick's timers may get the core a slice earlier than under the
        loop, ahead of a claimant of higher priority that queues in that
        slice, and with two waiters a return can pass the other's.  A
        ``run()`` stopped by an event in the tick of a boundary may count
        that boundary's events before the loop would
        (``tests/property/test_poll_spin_props.py`` pins the cases).

        ``wait``/``wait_step`` hand this generator out as their own, so no
        delegating frame resumes with it.
        """
        ep = self.ep
        queue = ep.event_queue
        res = self.proc.core.resource
        claim = res.request
        env = self.env
        slice_ns = self.config.poll_slice_ns
        waits = self._waits
        r = None
        while True:
            if r is None:
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
                r = claim(PRIO_USER)
            with r:
                if req is None or r.triggered:
                    got = yield r
                else:
                    waits[r] = (req, doorbell)
                    got = yield r
                    del waits[r]
                nxt = None
                # Otherwise a pair hold handed this waiter the core to end
                # its own slice: it gives the core back at once.
                if got is r:
                    hold = (req is not None and not req.done
                            and not doorbell.triggered)
                    partner = None
                    if hold and res.queue_length:
                        partner = res.peek()
                        other = waits.get(partner)
                        hold = (res.queue_length == 1 and other is not None
                                and other[1] is doorbell
                                and not other[0].done)
                    if hold:
                        nxt = yield _Hold(env, res, r, partner, slice_ns,
                                          doorbell).over
                    else:
                        timer = env.timeout(slice_ns)
                        yield env.race(doorbell, timer)
                        timer.cancel()  # recycle the loser; no-op if it fired
            # After a hand-over this waiter is already queued again, as
            # the slice loop would have it at the hold's last boundary.
            r = nxt
            if req is None:
                return None

    def _finish(self, req: OmxRequest, status: str) -> None:
        """Make ``req`` terminal and wake a spin holding the core, which
        re-checks ``req`` at its next slice boundary."""
        req.done = True
        req.status = status
        self.proc.core.resource.wake()

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
            self._finish(req, "cancelled")
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
            yield from ctx.charge(MATCH_COST_NS)
            req = self._match_posted(ev.match_info)
            if req is None:
                self._unexpected.append(_UnexpectedEager(ev))
            else:
                yield from self._deliver_eager(req, ev)
        elif isinstance(ev, RndvEvent):
            yield from ctx.charge(MATCH_COST_NS)
            req = self._match_posted(ev.rndv.match_info)
            if req is None:
                self._unexpected.append(_UnexpectedRndv(ev.rndv))
            else:
                yield from self._start_pull(req, ev.rndv)
        elif isinstance(ev, SendLargeDone):
            req = self._send_waiting.pop(ev.seq, None)
            if req is None:
                self._send_done_early[ev.seq] = ev
            else:
                yield from self._complete(ctx, req, ev.status)
        elif isinstance(ev, RecvLargeDone):
            req = self._recv_waiting.pop(ev.handle, None)
            if req is not None:
                yield from self._complete(ctx, req, ev.status)
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
            self._finish(req, "truncated")
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
        self._finish(req, "ok")

    def _start_pull(self, req: OmxRequest, rndv: Rndv) -> Generator:
        if rndv.msg_length > req.length:
            self._finish(req, "truncated")
            return
        ctx = self.proc.user_context()
        yield from self._get_region(ctx, req.va, req.length, req,
                                    segments=req.segments)

        def body(sctx):
            handle = yield from self.driver.submit_recv_large(
                sctx, self.ep, req.region_id, rndv
            )
            return handle

        try:
            handle = yield from self.proc.syscall(body)
        finally:
            self._unlease_region(req.region_id)
        req.received_length = rndv.msg_length
        self._recv_waiting[handle] = req
