"""Pinning strategy engine (the heart of the paper's contribution).

The :class:`PinManager` decides *when* a declared region's pages actually
get pinned and unpinned:

* synchronous modes pin the whole region inside the submitting syscall,
  before the initiating packet leaves (Figure 2);
* overlapped modes send the initiating packet first and run the pinning
  loop as deferred kernel work on the submitting core, advancing the
  region's watermark batch by batch while the rendezvous round-trip and the
  data transfer proceed (Figure 5);
* cached modes keep regions pinned after the communication finishes;
  non-cached modes unpin at completion;
* MMU-notifier invalidations cancel in-flight pinners and unpin idle
  regions instantly; regions used by an active communication are unpinned
  as soon as the communication completes (deferred invalidation).

If the machine's pinned-page budget is exhausted, the manager reclaims
pages from least-recently-used idle pinned regions, as Section 3.1
describes ("if there are too many pinned pages ... it may also request
some unpinning").
"""

from __future__ import annotations

from collections.abc import Generator

from repro.hw.cpu import PRIO_KERNEL, CpuCore
from repro.kernel.context import ExecContext
from repro.kernel.kernel import Kernel
from repro.kernel.pinning import PinError
from repro.obs.metrics import Counters
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.openmx.regions import RegionState, UserRegion
from repro.sim import Environment, Event

__all__ = ["PinManager"]

# Pages pinned per core acquisition in the pinning loop.  Determines the
# granularity at which the watermark advances and at which higher-priority
# (bottom-half) work can preempt the pinner.
PIN_BATCH_PAGES = 16


class PinManager:
    """Implements the PinningMode policies for one driver."""

    def __init__(self, env: Environment, kernel: Kernel, config: OpenMXConfig,
                 counters: Counters):
        self.env = env
        self.kernel = kernel
        self.config = config
        self.counters = counters
        self._pin_waiters: dict[int, list[Event]] = {}
        # LRU clock for idle-region reclaim.
        self._use_clock = 0
        self._last_use: dict[int, int] = {}
        self._pinned_idle: dict[int, UserRegion] = {}

    # -- bookkeeping -----------------------------------------------------------
    def _touch(self, region: UserRegion) -> None:
        self._use_clock += 1
        self._last_use[region.id] = self._use_clock

    def comm_started(self, region: UserRegion) -> None:
        region.active_comms += 1
        self._touch(region)
        self._pinned_idle.pop(region.id, None)

    def comm_done(self, ctx: ExecContext, region: UserRegion) -> Generator:
        """Process: communication finished; apply the mode's unpin policy."""
        region.active_comms -= 1
        if region.active_comms < 0:
            raise RuntimeError(f"region {region.id}: comm_done underflow")
        if region.active_comms > 0:
            return
        region.bounce = None  # drop any copy-through fallback snapshot
        if region.invalidate_pending:
            # Deferred MMU-notifier invalidation: honour it now.
            region.invalidate_pending = False
            self._unpin_instant(region)
            return
        if not self.config.pinning_mode.cached:
            yield from self._unpin(ctx, region)
        elif region.watermark > 0:
            self._pinned_idle[region.id] = region

    def region_destroyed(self, ctx: ExecContext, region: UserRegion) -> Generator:
        """Process: the region id is being freed; unpin whatever is pinned."""
        region.destroyed = True
        region.pin_cancelled = True
        self._pinned_idle.pop(region.id, None)
        self._last_use.pop(region.id, None)
        if region.watermark > 0:
            yield from self._unpin(ctx, region)
        self._wake_waiters(region)

    # -- invalidation (MMU notifier path) ---------------------------------------
    def invalidated(self, region: UserRegion) -> None:
        """MMU notifier: translations for this region are going away *now*.

        Runs synchronously in the invalidating task's context (munmap/COW);
        its CPU cost is part of that task's charge.  Active communications
        keep their frames (they hold ``get_user_pages`` references, so the
        frames merely become orphans from the VM's point of view) and the
        unpin is deferred to completion.
        """
        region.pin_cancelled = True
        if region.active_comms > 0:
            region.invalidate_pending = True
            self.counters.incr("invalidate_deferred")
            return
        self._unpin_instant(region)
        self.counters.incr("invalidate_unpinned")

    def _unpin_instant(self, region: UserRegion) -> None:
        frames = region.take_pinned_frames()
        if frames:
            self.kernel.pin.unpin_now(region.aspace, frames)
        self._release_owner_budget(region)
        self._pinned_idle.pop(region.id, None)
        self._wake_waiters(region)

    def _release_owner_budget(self, region: UserRegion) -> None:
        """Hand a region's consumed admission-budget pages back to its
        owner's share-cap footprint.  Every path that drops the region's
        pinned frames (unpin, reclaim, invalidation, rollback) funnels
        through this; a no-op for unowned regions and legacy mode."""
        if region.budget_pages:
            self.kernel.pin.owner_release(region.owner, region.budget_pages)
            region.budget_pages = 0

    # -- pinning ----------------------------------------------------------------
    def acquire_pinned(self, ctx: ExecContext, region: UserRegion) -> Generator:
        """Process: make sure the region is fully pinned (synchronous modes).

        Returns True when pinned, False when the region's addresses are
        invalid (the request must abort with an error, Section 3.1).
        """
        self._touch(region)
        while True:
            if region.destroyed:
                return False
            if region.state is RegionState.PINNED:
                return True
            if region.state is RegionState.PINNING:
                yield self._waiter_event(region)
                continue
            return (yield from self._pin_loop(ctx.core, region, ctx.priority))

    def start_overlapped_pin(self, core: CpuCore, region: UserRegion,
                             on_fail=None) -> None:
        """Kick off the asynchronous pinning of a region (overlapped modes).

        The pinner runs as deferred kernel work on the submitting core; the
        caller returns immediately and the low-level communication proceeds
        (Figure 5: the initiating message is already on the wire).
        ``on_fail`` is invoked if the region turns out to be unpinnable
        (invalid addresses) so the transfer can abort with an error.
        """
        self._touch(region)
        if region.state in (RegionState.PINNED, RegionState.PINNING):
            return

        def pinner():
            ok = yield from self._pin_loop(core, region, PRIO_KERNEL)
            if not ok and region.state is RegionState.FAILED and on_fail is not None:
                on_fail()

        self.env.process(pinner(), name=f"omx.pin.r{region.id}")

    def pin_prefix(self, ctx: ExecContext, region: UserRegion,
                   npages: int) -> Generator:
        """Process: synchronously pin the first ``npages`` pages.

        The Section 4.3 extension: before sending the initiating message in
        overlapped mode, wire down a small prefix so the earliest data
        packets never miss.  Returns True unless the region is invalid.
        Afterwards the region is left without an active pinner (state
        UNPINNED, watermark advanced) so the main overlapped pin resumes
        from the prefix.
        """
        stop_at = min(npages, region.npages)
        if region.watermark >= stop_at or region.state in (
            RegionState.PINNED, RegionState.PINNING
        ):
            return True
        self._touch(region)
        ok = yield from self._pin_loop(ctx.core, region, ctx.priority,
                                       stop_at=stop_at)
        if ok:
            self.counters.incr("prefix_pinned")
        return ok

    def _admit(self, core: CpuCore, region: UserRegion, npages: int,
               priority: int) -> Generator:
        """Process: reserve pin budget for ``npages`` via the fair queue.

        Returns a reservation token, or None when the region must give up —
        either the bounded queue wait expired (``region.pin_denied`` is set
        so the driver degrades straight to copy-through) or the region was
        invalidated/destroyed while waiting.  The region is parked in
        PINNING state for the duration so no second pinner starts, and left
        resumable (UNPINNED) on failure.
        """
        pin = self.kernel.pin
        memory = region.aspace.memory
        share = self.config.pin_queue_max_share
        region.state = RegionState.PINNING
        region.pin_cancelled = False
        epoch = region.pin_epoch
        token = pin.try_reserve(memory, npages, region.owner, share)
        if token is None:
            yield from self._reclaim(core, npages, priority, exclude=region.id)
            token = pin.try_reserve(memory, npages, region.owner, share)
        if token is None:
            self.counters.incr("pin_budget_wait")
            token = yield from pin.reserve_budget(
                core, memory, npages, region.owner,
                self.config.pin_queue_wait_max_ns, share)
        aborted = (region.pin_cancelled or region.destroyed
                   or region.pin_epoch != epoch)
        if token is not None and not aborted:
            return token
        if token is not None:
            pin.release_reservation(token)
            self.counters.incr("pin_cancelled")
        else:
            region.pin_denied = True
            self.counters.incr("pin_budget_denied")
        if region.state is RegionState.PINNING:
            region.state = RegionState.UNPINNED
        self._wake_waiters(region)
        return None

    def _pin_loop(self, core: CpuCore, region: UserRegion, priority: int,
                  stop_at: int | None = None) -> Generator:
        """Pin the region's remaining pages batch by batch.

        ``stop_at`` bounds the pin to a page prefix; the region is then left
        in UNPINNED state with its watermark advanced ("no pinner active,
        resumable"), which a later :meth:`acquire_pinned` continues from.
        """
        pin = self.kernel.pin
        limit = region.npages if stop_at is None else min(stop_at, region.npages)
        npages_left = limit - region.watermark
        region.pin_denied = False
        token = None
        if self.config.pin_queue_enabled and npages_left > 0:
            token = yield from self._admit(core, region, npages_left, priority)
            if token is None:
                return False
        elif npages_left > 0 and not region.aspace.memory.can_pin(npages_left):
            # Park concurrent acquirers before yielding into the reclaim: a
            # second pinner slipping through the UNPINNED window would run
            # its own pin loop against the same region and the interleaved
            # attaches would double-pin pages and overrun the watermark.
            region.state = RegionState.PINNING
            yield from self._reclaim(core, npages_left, priority, exclude=region.id)
        region.state = RegionState.PINNING
        region.pin_cancelled = False
        epoch = region.pin_epoch
        start_mark = region.watermark
        if token is None:
            attach = lambda batch: region.attach_frames(region.watermark, batch)
        else:
            def attach(batch):
                region.attach_frames(region.watermark, batch)
                pin.consume_reservation(token, len(batch))
                region.budget_pages += len(batch)
        try:
            try:
                yield from pin.pin_pages_batched(
                    core,
                    region.aspace,
                    region.page_vas[:limit],
                    priority=priority,
                    start_index=start_mark,
                    batch_pages=PIN_BATCH_PAGES,
                    on_batch=attach,
                    should_abort=lambda: (
                        region.pin_cancelled
                        or region.destroyed
                        or region.pin_epoch != epoch
                    ),
                )
            except PinError:
                # pin_pages_batched rolled back only *this call's* frames.  A
                # resumed pin (watermark advanced by an earlier, aborted call)
                # may still hold frames attached back then; mark_failed() would
                # silently discard them and they would stay pinned forever —
                # invisible to every unpin path.  Release them here, paying the
                # unpin cost like any other rollback.  Scope by position, not
                # pin_count: frames below ``start_mark`` carry this region's
                # reference, frames at/above it belonged to the failing call and
                # were already rolled back (their pin_count may still be nonzero
                # through an overlapping region — that reference is not ours).
                leftovers = [f for f in region.frames[:start_mark] if f is not None]
                region.mark_failed()
                self._release_owner_budget(region)
                self.counters.incr("pin_failed")
                self._wake_waiters(region)
                if leftovers:
                    self.counters.incr("pin_failed_rollback_pages", len(leftovers))
                    yield from pin.unpin_user_pages(core, region.aspace,
                                                    leftovers, priority)
                return False
        finally:
            # Cancelled/aborted pins leave part of the reservation
            # unconsumed; hand it back so queued waiters can progress.
            if token is not None:
                pin.release_reservation(token)
        self._wake_waiters(region)
        if region.state is RegionState.PINNED:
            self.counters.incr("region_pinned")
            return True
        if (stop_at is not None and region.watermark >= limit
                and not region.pin_cancelled and not region.destroyed
                and region.pin_epoch == epoch):
            # Prefix complete: leave the region resumable.
            region.state = RegionState.UNPINNED
            return True
        # Cancelled mid-pin (invalidation or destruction).  Leave the region
        # resumable — a PINNING state with no live pinner would strand any
        # waiter in acquire_pinned forever.
        if region.state is RegionState.PINNING:
            region.state = RegionState.UNPINNED
        self.counters.incr("pin_cancelled")
        return False

    def _unpin(self, ctx: ExecContext, region: UserRegion) -> Generator:
        frames = region.take_pinned_frames()
        if not frames:
            return
        cost = self.kernel.pin.unpin_cost_ns(ctx.core, len(frames))
        yield from ctx.charge(cost)
        for frame in frames:
            region.aspace.unpin_frame(frame)
        self.kernel.pin.account_unpin(len(frames))
        self._release_owner_budget(region)
        self._pinned_idle.pop(region.id, None)
        self.counters.incr("region_unpinned")

    def _reclaim(self, core: CpuCore, npages: int, priority: int,
                 exclude: int) -> Generator:
        """Unpin LRU idle regions until ``npages`` can be pinned."""
        victims = sorted(
            (r for r in self._pinned_idle.values() if r.id != exclude),
            key=lambda r: self._last_use.get(r.id, 0),
        )
        for victim in victims:
            if victim.aspace.memory.can_pin(npages):
                break
            frames = victim.take_pinned_frames()
            if frames:
                cost = self.kernel.pin.unpin_cost_ns(core, len(frames))
                yield from core.execute(cost, priority)
                for frame in frames:
                    victim.aspace.unpin_frame(frame)
                self.kernel.pin.account_unpin(len(frames))
            self._release_owner_budget(victim)
            self._pinned_idle.pop(victim.id, None)
            self.counters.incr("reclaim_unpinned")

    # -- waiter plumbing ---------------------------------------------------------
    def _waiter_event(self, region: UserRegion) -> Event:
        ev = self.env.event()
        self._pin_waiters.setdefault(region.id, []).append(ev)
        return ev

    def _wake_waiters(self, region: UserRegion) -> None:
        for ev in self._pin_waiters.pop(region.id, []):
            if not ev.triggered:
                ev.succeed()
