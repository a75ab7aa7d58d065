"""Page pinning with the paper's measured cost model (Table 1).

``PinService.pin_user_pages`` is the simulation analogue of
``get_user_pages``: it faults pages in, takes a pin reference on each frame,
and charges CPU time on the calling core.  The combined pin+unpin cost of
``npages`` pages is ``base + per_page * npages`` (Table 1); ``PIN_FRACTION``
of it is charged at pin time and the remainder at unpin time.

Pinning can proceed page-by-page with a progress callback — that is the hook
overlapped pinning (Section 3.3) uses to advance a region's pinned watermark
while communication is already in flight.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.hw.cpu import PRIO_KERNEL, CpuCore
from repro.hw.memory import PAGE_SIZE, Frame, OutOfMemory
from repro.kernel.address_space import AddressSpace, BadAddress
from repro.obs.metrics import MetricRegistry, resolve_registry

__all__ = ["PinError", "PinReservation", "PinService", "PIN_FRACTION"]

# Fraction of the combined pin+unpin cycle charged at pin time.  Faulting and
# reference-taking dominate the pin half; unpin is mostly refcount drops.
PIN_FRACTION = 0.75


class PinError(Exception):
    """Pinning failed (invalid address range or pinned-page limit)."""


class PinReservation:
    """A slice of the pinned-page budget set aside for one pin operation.

    Granted by :meth:`PinService.try_reserve` / :meth:`PinService.reserve_budget`;
    consumed page by page as frames are actually pinned and released (with the
    unconsumed remainder returned to the budget) when the operation ends.
    """

    __slots__ = ("owner", "pages")

    def __init__(self, owner, pages: int):
        self.owner = owner
        self.pages = pages


class _BudgetWaiter:
    """One FIFO queue entry waiting for pin-budget headroom."""

    __slots__ = ("event", "memory", "npages", "owner", "cap",
                 "cancelled", "granted", "token")

    def __init__(self, event, memory, npages: int, owner, cap: int):
        self.event = event
        self.memory = memory
        self.npages = npages
        self.owner = owner
        self.cap = cap
        self.cancelled = False
        self.granted = False
        self.token: PinReservation | None = None


class PinService:
    """Pins and unpins user pages on behalf of drivers."""

    def __init__(self, pin_fraction: float = PIN_FRACTION,
                 metrics: MetricRegistry | None = None, host: str = ""):
        if not 0.0 < pin_fraction < 1.0:
            raise ValueError(f"pin_fraction must be in (0,1), got {pin_fraction}")
        self.pin_fraction = pin_fraction
        self.pins = 0
        self.unpins = 0
        self.pages_pinned = 0
        self.fused_pins = 0  # pins served by the single-charge fast path
        # Fair budget admission (see reserve_budget): pages promised to
        # not-yet-completed pin operations, a per-owner footprint for the
        # share cap (reserved pages PLUS consumed-and-still-held pages —
        # the cap is on what an owner occupies, not on what it has merely
        # promised; owner_release() returns pages when the owner's pins are
        # dropped), and the FIFO waiter queue.  All zero/empty unless a
        # caller opts into reservations, so legacy runs are unaffected.
        self._reserved = 0
        self._owner_pages: dict = {}
        self._waiters: list[_BudgetWaiter] = []
        self.budget_waits = 0  # reservations that had to queue
        # Fault injection: an object with ``pin_delay_ns(npages) -> int``
        # (extra CPU charged before the pin) and ``pin_should_fail() -> bool``
        # (transient ENOMEM: the attempt rolls back and raises PinError).
        self.fault_hook = None
        registry = resolve_registry(metrics)
        self.metrics = registry
        lbl = {"host": host}
        self._m_pin_latency = registry.histogram(
            "kernel_pin_latency_ns",
            "get_user_pages latency per pin call (fault + pin references)",
            labelnames=("host",)).labels(**lbl)
        self._m_unpin_latency = registry.histogram(
            "kernel_unpin_latency_ns", "unpin latency per unpin call",
            labelnames=("host",)).labels(**lbl)
        self._m_pinned_pages = registry.gauge(
            "kernel_pinned_pages", "pages currently holding a pin reference",
            labelnames=("host",)).labels(**lbl)
        # Pin calls that failed, and queue waits that expired ungranted:
        # this service's own registry cells (read as ``.value``).
        self.pin_failures = registry.counter(
            "kernel_pin_failures", "pin calls that failed (bad range / OOM)",
            labelnames=("host",)).cell(**lbl)
        self._m_reserved_pages = registry.gauge(
            "kernel_pin_reserved_pages",
            "pages of the pin budget reserved by queued/admitted pinners",
            labelnames=("host",)).labels(**lbl)
        self._m_queue_wait = registry.histogram(
            "kernel_pin_queue_wait_ns",
            "time spent queued for pin-budget headroom",
            labelnames=("host",)).labels(**lbl)
        self.budget_timeouts = registry.counter(
            "kernel_pin_queue_timeouts",
            "budget-queue waits that expired before admission",
            labelnames=("host",)).cell(**lbl)

    def _account_pinned(self, npages: int) -> None:
        """Count ``npages`` newly pinned pages: the pin loops call this once
        per batch (and for a partial batch before a rollback unpins it)."""
        self.pages_pinned += npages
        self._m_pinned_pages.inc(npages)

    def account_unpin(self, nframes: int) -> None:
        """Bookkeeping for unpins performed by callers that charge their own
        CPU time (PinManager's deferred-unpin and reclaim paths)."""
        self.unpins += 1
        self._m_pinned_pages.dec(nframes)
        if self._waiters:
            self._drain_waiters()

    # -- fair budget admission ----------------------------------------------
    #
    # The legacy path races every pinner against ``Memory.account_pin``:
    # first page wins, and a heavy pinner that keeps the budget saturated
    # starves everyone else into their retry/fallback ladders.  The
    # reservation protocol fixes admission without touching the page-level
    # accounting: a pin operation first *reserves* its page count against
    # ``max_pinned`` (so concurrent reservations cannot jointly overshoot),
    # queues FIFO when there is no headroom, and converts the reservation
    # into real pinned pages batch by batch.  Waiters are woken in order as
    # unpins create headroom; a waiter blocked only by its own share cap can
    # be overtaken (otherwise one greedy owner would block the whole queue),
    # a waiter blocked by the budget itself cannot (starvation freedom).

    def budget_headroom(self, memory) -> int:
        """Unreserved, unpinned budget pages available right now."""
        return memory.max_pinned - memory.pinned_frames - self._reserved

    @property
    def reserved_pages(self) -> int:
        """Pages promised to in-flight pin operations (oracle hook)."""
        return self._reserved

    @property
    def owner_footprint(self) -> dict:
        """Per-owner held budget pages, reserved + consumed (oracle hook)."""
        return dict(self._owner_pages)

    def _owner_cap(self, memory, max_share: float) -> int:
        return int(memory.max_pinned * max_share)

    def _grant(self, npages: int, owner) -> PinReservation:
        self._reserved += npages
        if owner is not None:
            self._owner_pages[owner] = (
                self._owner_pages.get(owner, 0) + npages)
        self._m_reserved_pages.inc(npages)
        return PinReservation(owner, npages)

    def try_reserve(self, memory, npages: int, owner,
                    max_share: float = 1.0) -> PinReservation | None:
        """Reserve ``npages`` of budget immediately, or return None.

        Fails when the queue is non-empty (no overtaking the FIFO), when the
        headroom is short, or when the owner's share cap would be exceeded.
        """
        if npages <= 0:
            raise ValueError(f"cannot reserve {npages} pages")
        if any(not w.cancelled for w in self._waiters):
            return None
        if npages > self.budget_headroom(memory):
            return None
        if owner is not None and max_share < 1.0:
            cap = self._owner_cap(memory, max_share)
            if self._owner_pages.get(owner, 0) + npages > cap:
                return None
        return self._grant(npages, owner)

    def reserve_budget(self, core: CpuCore, memory, npages: int, owner,
                       max_wait_ns: int, max_share: float = 1.0) -> Generator:
        """Process: reserve ``npages``, queueing up to ``max_wait_ns``.

        Returns a :class:`PinReservation`, or None if the bounded wait
        expired before headroom appeared — the caller degrades (copy-through
        fallback) instead of holding the budget hostage.
        """
        token = self.try_reserve(memory, npages, owner, max_share)
        if token is not None:
            return token
        self.budget_waits += 1
        env = core.env
        event = env.event()
        cap = self._owner_cap(memory, max_share)
        waiter = _BudgetWaiter(event, memory, npages, owner, cap)
        self._waiters.append(waiter)
        # A share-capped head is skippable: this newcomer may be admissible
        # right now even though its try_reserve failed on the non-empty
        # queue.  Drain once so it does not wait for the next unpin.
        self._drain_waiters()
        timer = env.timeout(max(max_wait_ns, 0))
        t_start = env.now
        yield env.race(event, timer)
        self._m_queue_wait.observe(env.now - t_start)
        if waiter.granted:
            timer.cancel()
            return waiter.token
        # Timed out: mark for lazy removal so _drain_waiters skips us.
        waiter.cancelled = True
        self.budget_timeouts.value += 1
        return None

    def consume_reservation(self, token: PinReservation, npages: int) -> None:
        """Convert reserved pages into really-pinned pages (no new headroom:
        ``pinned_frames`` grew by exactly what ``_reserved`` shrank).  The
        owner's footprint is untouched — the pages are still *held*, just no
        longer merely promised; :meth:`owner_release` returns them when the
        owner's pins are actually dropped."""
        take = min(npages, token.pages)
        if take <= 0:
            return
        token.pages -= take
        self._reserved -= take
        self._m_reserved_pages.dec(take)

    def release_reservation(self, token: PinReservation) -> None:
        """Return a reservation's unconsumed remainder to the budget."""
        remainder = token.pages
        if remainder <= 0:
            return
        token.pages = 0
        self._reserved -= remainder
        self._owner_release(token.owner, remainder)
        self._m_reserved_pages.dec(remainder)
        if self._waiters:
            self._drain_waiters()

    def owner_release(self, owner, npages: int) -> None:
        """Return ``npages`` of an owner's *held* (consumed) footprint.

        Called by the pin manager when an owned region's pinned frames are
        dropped (unpin, reclaim, invalidation, rollback) — the counterpart
        of the footprint that :meth:`consume_reservation` leaves in place.
        Wakes share-capped waiters that now fit under their cap.
        """
        if owner is None or npages <= 0:
            return
        self._owner_release(owner, npages)
        if self._waiters:
            self._drain_waiters()

    def _owner_release(self, owner, npages: int) -> None:
        if owner is None:
            return
        left = self._owner_pages.get(owner, 0) - npages
        if left > 0:
            self._owner_pages[owner] = left
        else:
            self._owner_pages.pop(owner, None)

    def _drain_waiters(self) -> None:
        """Admit queued waiters in FIFO order as headroom allows.

        A waiter short on *budget* blocks everyone behind it (strict FIFO —
        small requests cannot starve a large one by slipping past forever);
        a waiter blocked only by its own *share cap* is skipped so one
        over-cap owner cannot wedge the queue.
        """
        i = 0
        while i < len(self._waiters):
            waiter = self._waiters[i]
            if waiter.cancelled:
                del self._waiters[i]
                continue
            if waiter.npages > self.budget_headroom(waiter.memory):
                break
            if (waiter.owner is not None
                    and self._owner_pages.get(waiter.owner, 0)
                    + waiter.npages > waiter.cap):
                i += 1
                continue
            del self._waiters[i]
            waiter.granted = True
            waiter.token = self._grant(waiter.npages, waiter.owner)
            waiter.event.succeed()

    # -- cost model ---------------------------------------------------------
    def pin_cost_ns(self, core: CpuCore, npages: int) -> int:
        spec = core.spec
        total = spec.pin_unpin_cost_ns(npages)
        return int(total * self.pin_fraction)

    def unpin_cost_ns(self, core: CpuCore, npages: int) -> int:
        spec = core.spec
        total = spec.pin_unpin_cost_ns(npages)
        return total - int(total * self.pin_fraction)

    def pin_base_ns(self, core: CpuCore) -> int:
        return int(core.spec.pin_base_ns * self.pin_fraction)

    def pin_per_page_ns(self, core: CpuCore) -> int:
        return int(core.spec.pin_per_page_ns * self.pin_fraction)

    # -- operations -----------------------------------------------------------
    def pin_user_pages(
        self,
        core: CpuCore,
        aspace: AddressSpace,
        addr: int,
        npages: int,
        priority: int = PRIO_KERNEL,
    ) -> Generator:
        """Process: pin ``npages`` starting at the page containing ``addr``.

        Returns the list of pinned frames in page order.  The historical
        path charges the base cost, then re-acquires the core once per
        page; the fused path below charges the same total in one span.

        On failure, every page pinned so far is unpinned (time charged) and
        :class:`PinError` propagates to the caller.
        """
        if npages <= 0:
            raise PinError(f"cannot pin {npages} pages")
        start = (addr // PAGE_SIZE) * PAGE_SIZE
        if not aspace.is_mapped_range(start, npages * PAGE_SIZE):
            # The paper: declaration of an invalid segment succeeds, but the
            # pin fails at communication time and the request aborts.
            self.pin_failures.value += 1
            raise PinError(
                f"range {start:#x}+{npages}p not mapped in {aspace.name}"
            )
        t_start = core.env.now

        frames: list[Frame] = []
        base = self.pin_base_ns(core)
        per_page = self.pin_per_page_ns(core)

        # Fast path: fuse the base + per-page charge ladder into one core
        # span when its preemption points are provably unobservable — no
        # fault hook, an idle core with an empty queue (every intermediate
        # re-acquisition would have been immediate at the same instant), and
        # enough pin budget and free frames that no page can fail partway.
        # ``base`` and ``per_page`` are pre-truncated ints, so the fused
        # total equals the historical per-page sum exactly: completion
        # instant, latency histogram and every counter come out
        # bit-identical.
        memory = aspace.memory
        if (self.fault_hook is None and not core.busy
                and core.queue_length == 0
                and memory.can_pin(npages + self._reserved)
                and memory.free_frames >= npages):
            yield from core.execute(base + per_page * npages, priority)
            try:
                for i in range(npages):
                    frames.append(aspace.pin_page(start + i * PAGE_SIZE))
            except (BadAddress, OutOfMemory) as exc:
                # A concurrent VM operation raced the charge window (e.g. a
                # munmap on another core); fail like the historical loop.
                self._account_pinned(len(frames))
                if frames:
                    yield from self.unpin_user_pages(core, aspace, frames,
                                                     priority)
                self.pin_failures.value += 1
                raise PinError(str(exc)) from exc
            self._account_pinned(npages)
            self.pins += 1
            self.fused_pins += 1
            self._m_pin_latency.observe(core.env.now - t_start)
            return frames

        try:
            yield from core.execute(base, priority)
            if self.fault_hook is not None:
                extra = self.fault_hook.pin_delay_ns(npages)
                if extra > 0:
                    yield from core.execute(extra, priority)
                if self.fault_hook.pin_should_fail():
                    raise OutOfMemory("injected transient pin failure")
            for i in range(npages):
                # A batch of one page: the core is re-acquired per page.
                yield from core.execute(per_page, priority)
                frames.append(aspace.pin_page(start + i * PAGE_SIZE))
                self._account_pinned(1)
        except (BadAddress, OutOfMemory) as exc:
            # Roll back partial pins, paying the unpin cost.
            if frames:
                yield from self.unpin_user_pages(core, aspace, frames, priority)
            self.pin_failures.value += 1
            raise PinError(str(exc)) from exc
        self.pins += 1
        self._m_pin_latency.observe(core.env.now - t_start)
        return frames

    def pin_pages_batched(
        self,
        core: CpuCore,
        aspace: AddressSpace,
        page_vas: list[int],
        priority: int = PRIO_KERNEL,
        start_index: int = 0,
        batch_pages: int = 16,
        charge_base: bool = True,
        on_batch=None,
        should_abort=None,
    ) -> Generator:
        """Process: pin ``page_vas[start_index:]`` in batches.

        Each batch acquires the core once and charges ``batch * per_page``;
        between batches higher-priority work can claim the core, and
        ``should_abort()`` is consulted (an MMU notifier invalidating the
        region mid-pin cancels the pinner this way).  ``on_batch(frames_so_far)``
        is called with the new frames after each batch.

        Returns the number of pages pinned by this call.  The caller owns the
        frames reported through ``on_batch`` (no rollback on abort — an
        aborting notifier has already released them); a :class:`PinError` on
        bad addresses rolls back only this call's frames.
        """
        mine: list[Frame] = []
        batch: list[Frame] = []  # pinned, not yet counted
        idx = start_index
        t_start = core.env.now
        try:
            if charge_base:
                yield from core.execute(self.pin_base_ns(core), priority)
            per_page = self.pin_per_page_ns(core)
            while idx < len(page_vas):
                if should_abort is not None and should_abort():
                    return idx - start_index
                n = min(batch_pages, len(page_vas) - idx)
                if self.fault_hook is not None:
                    extra = self.fault_hook.pin_delay_ns(n)
                    if extra > 0:
                        yield from core.execute(extra, priority)
                    if self.fault_hook.pin_should_fail():
                        raise OutOfMemory("injected transient pin failure")
                yield from core.execute(per_page * n, priority)
                if should_abort is not None and should_abort():
                    return idx - start_index
                for va in page_vas[idx : idx + n]:
                    frame = aspace.pin_page(va)
                    # Track immediately so a mid-batch fault rolls back
                    # every frame pinned so far, not just completed batches.
                    mine.append(frame)
                    batch.append(frame)
                self._account_pinned(n)
                idx += n
                pinned, batch = batch, []
                if on_batch is not None:
                    on_batch(pinned)
        except (BadAddress, OutOfMemory) as exc:
            # Roll back this call's frames.  Frames an MMU notifier already
            # released (pin_count == 0) are skipped: the notifier owns their
            # cleanup.  After a PinError the caller must treat every frame it
            # saw via on_batch as unpinned.  The partial batch was pinned, so
            # it is counted before the rollback unpins it.
            self._account_pinned(len(batch))
            still_pinned = [f for f in mine if f.pinned]
            if still_pinned:
                yield from self.unpin_user_pages(core, aspace, still_pinned, priority)
            self.pin_failures.value += 1
            raise PinError(str(exc)) from exc
        self.pins += 1
        self._m_pin_latency.observe(core.env.now - t_start)
        return idx - start_index

    def unpin_user_pages(
        self,
        core: CpuCore,
        aspace: AddressSpace,
        frames: list[Frame],
        priority: int = PRIO_KERNEL,
    ) -> Generator:
        """Process: drop pin references on ``frames``, charging unpin time."""
        if not frames:
            return
        t_start = core.env.now
        cost = self.unpin_cost_ns(core, len(frames))
        yield from core.execute(cost, priority)
        for frame in frames:
            aspace.unpin_frame(frame)
        self.account_unpin(len(frames))
        self._m_unpin_latency.observe(core.env.now - t_start)

    def unpin_now(self, aspace: AddressSpace, frames: list[Frame]) -> None:
        """Instantaneous unpin used from MMU-notifier context.

        Linux notifier callbacks run synchronously inside the VM operation;
        the (small) CPU cost is attributed to the invalidating caller, which
        our callers charge as part of the munmap/COW path.
        """
        for frame in frames:
            aspace.unpin_frame(frame)
        self.account_unpin(len(frames))
