"""User-space region cache (Section 3.2).

The cache maps segment lists to the small integer region descriptors the
driver hands out, so repeated communications on the same buffer skip the
declaration syscall entirely.  When the number of cached regions exceeds the
configured capacity, the least-recently-used *idle* region is undeclared.

Crucially — and this is the paper's point — the cache needs **no**
invalidation plumbing: pinning validity is owned entirely by the kernel
(MMU notifiers unpin; the driver repins on demand), so a cached descriptor
is always safe to reuse even after the application freed and re-mapped the
buffer underneath it.

Safe, not always *useful*: when the application munmaps a buffer and later
maps a different one at the same address, the cached descriptor still
resolves — the kernel simply repins the new backing — but an application
mixing such recycled ranges with vectorial layouts can accumulate
descriptors for dead layouts.  The optional ``range_gen`` hook (driven by
``OpenMXConfig.region_cache_validate``) snapshots the VMA creation
generations under each entry at declare time and turns a hit whose mapping
generations changed into a miss, undeclaring the stale entry.

Re-entrancy: ``get`` suspends twice (lookup charge, declaration syscall) and
eviction suspends inside the destroy syscall, so ``forget``/``flush``/other
``get`` calls can interleave with an in-flight declaration.  The flush-epoch
and post-declare re-checks below keep the two maps (segments->rid and
rid->segments) consistent under any such interleaving.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Generator

from repro.kernel.context import ExecContext
from repro.obs.metrics import Counters
from repro.openmx.config import OpenMXConfig
from repro.openmx.regions import Segment

__all__ = ["RegionCache"]


class RegionCache:
    """LRU cache of declared regions for one endpoint."""

    def __init__(
        self,
        config: OpenMXConfig,
        declare: Callable[[ExecContext, tuple[Segment, ...]], Generator],
        destroy: Callable[[ExecContext, int], Generator],
        is_idle: Callable[[int], bool],
        capacity: int | None = None,
        counters: Counters | None = None,
        range_gen: Callable[[tuple[Segment, ...]], object] | None = None,
    ):
        self.config = config
        self._declare = declare
        self._destroy = destroy
        self._is_idle = is_idle
        # None = unbounded (permanent pinning baseline never evicts).
        self.capacity = capacity
        self._lru: OrderedDict[tuple[Segment, ...], int] = OrderedDict()
        # Reverse map for O(1) forget(): dead-region reports arrive on the
        # hot receive path in large reuse sweeps.
        self._by_rid: dict[int, tuple[Segment, ...]] = {}
        # Mapping-generation snapshot per entry (only when validating).
        self._range_gen = range_gen
        self._gen: dict[tuple[Segment, ...], object] = {}
        # Bumped by flush(); a declaration that was in flight across a flush
        # must not insert its (now unwanted) region into the emptied cache.
        self._flush_epoch = 0
        self.counters = counters if counters is not None else Counters()

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, ctx: ExecContext, segments: tuple[Segment, ...]) -> Generator:
        """Process: return the region id for ``segments`` (declaring on miss)."""
        yield from ctx.charge(self.config.cache_lookup_ns)
        rid = self._lru.get(segments)
        if rid is not None:
            if self._range_gen is not None and (
                    self._gen.get(segments) != self._range_gen(segments)):
                # Same virtual range, different backing mapping: the
                # descriptor is still *safe* (the kernel repins whatever is
                # mapped now) but describes a dead layout; retire it and
                # redeclare.  Busy entries are merely uncached — the driver
                # destroys them once the last communication drains.
                self.counters.incr("region_cache_stale_hit")
                del self._lru[segments]
                self._by_rid.pop(rid, None)
                self._gen.pop(segments, None)
                if self._is_idle(rid):
                    yield from self._destroy(ctx, rid)
            else:
                self._lru.move_to_end(segments)
                self.counters.incr("region_cache_hit")
                return rid
        self.counters.incr("region_cache_miss")
        if self.capacity is not None and len(self._lru) >= self.capacity:
            yield from self._evict_one(ctx)
        epoch = self._flush_epoch
        rid = yield from self._declare(ctx, segments)
        if epoch != self._flush_epoch:
            # flush() ran while the declaration syscall was in flight: the
            # cache was emptied for teardown, so do not resurrect an entry.
            # The region stays declared but uncached; endpoint close sweeps
            # any such leftovers.
            self.counters.incr("region_cache_declare_raced")
            return rid
        racer = self._lru.get(segments)
        if racer is not None:
            # A concurrent get() for the same segments declared first.  Keep
            # the incumbent (overwriting would strand its reverse mapping and
            # make a later forget() drop the wrong entry); retire ours.
            self.counters.incr("region_cache_declare_raced")
            if self._is_idle(rid):
                yield from self._destroy(ctx, rid)
            self._lru.move_to_end(segments)
            return racer
        self._lru[segments] = rid
        self._by_rid[rid] = segments
        if self._range_gen is not None:
            self._gen[segments] = self._range_gen(segments)
        return rid

    def _evict_one(self, ctx: ExecContext) -> Generator:
        """Undeclare the least-recently-used idle region.

        ``OrderedDict`` iterates oldest-first, so the scan starts at the LRU
        end and stops at the first idle victim; ``region_cache_evict_scan``
        counts entries inspected (tests assert the scan stays at 1 when the
        LRU region is idle, the common reuse-sweep case).  The victim is
        unlinked from both maps *before* the destroy syscall suspends, so a
        forget()/flush() interleaving cannot see a half-removed entry.
        """
        scanned = 0
        for key, rid in self._lru.items():
            scanned += 1
            if self._is_idle(rid):
                self.counters.incr("region_cache_evict_scan", scanned)
                del self._lru[key]
                del self._by_rid[rid]
                self._gen.pop(key, None)
                yield from self._destroy(ctx, rid)
                self.counters.incr("region_cache_evict")
                return
        # Every cached region is mid-communication: allow temporary overflow.
        self.counters.incr("region_cache_evict_scan", scanned)
        self.counters.incr("region_cache_overflow")

    def forget(self, rid: int) -> None:
        """Drop a descriptor the kernel reported as dead (failed region)."""
        key = self._by_rid.pop(rid, None)
        if key is not None and self._lru.get(key) == rid:
            # Guard on the forward mapping still pointing at *this* rid: a
            # racing re-declaration may already own the key.
            del self._lru[key]
            self._gen.pop(key, None)

    def flush(self, ctx: ExecContext) -> Generator:
        """Undeclare everything (endpoint teardown)."""
        self._flush_epoch += 1
        for key, rid in list(self._lru.items()):
            if self._lru.get(key) != rid:
                continue  # a racing forget/evict removed it while we slept
            del self._lru[key]
            self._by_rid.pop(rid, None)
            self._gen.pop(key, None)
            yield from self._destroy(ctx, rid)
