"""Unit tests for the user-space LRU region cache."""

import pytest

from repro.obs.metrics import Counters
from repro.openmx.config import OpenMXConfig
from repro.openmx.region_cache import RegionCache
from repro.openmx.regions import Segment
from repro.sim import Environment


class Harness:
    """Drives the cache against a fake declare/destroy backend."""

    def __init__(self, capacity):
        self.env = Environment()
        self.declared = {}
        self.destroyed = []
        self.next_rid = 1
        self.active = set()
        self.cache = RegionCache(
            OpenMXConfig(),
            declare=self._declare,
            destroy=self._destroy,
            is_idle=lambda rid: rid not in self.active,
            capacity=capacity,
            counters=Counters(),
        )

    def _declare(self, ctx, segments):
        yield self.env.timeout(0)
        rid = self.next_rid
        self.next_rid += 1
        self.declared[rid] = segments
        return rid

    def _destroy(self, ctx, rid):
        yield self.env.timeout(0)
        self.destroyed.append(rid)
        del self.declared[rid]

    def get(self, va, length):
        class Ctx:
            env = self.env

            def charge(self, ns):
                yield self.env.timeout(ns)

        ctx = Ctx()
        proc = self.env.process(self.cache.get(ctx, (Segment(va, length),)))
        return self.env.run(until=proc)


def test_hit_returns_same_rid():
    h = Harness(capacity=4)
    rid1 = h.get(0x1000, 4096)
    rid2 = h.get(0x1000, 4096)
    assert rid1 == rid2
    assert h.cache.counters["region_cache_hit"] == 1
    assert h.cache.counters["region_cache_miss"] == 1


def test_different_segments_are_different_entries():
    h = Harness(capacity=4)
    assert h.get(0x1000, 4096) != h.get(0x1000, 8192)
    assert h.get(0x2000, 4096) != h.get(0x1000, 4096)
    assert len(h.cache) == 3


def test_lru_eviction_order():
    h = Harness(capacity=2)
    r1 = h.get(0x1000, 4096)
    r2 = h.get(0x2000, 4096)
    h.get(0x1000, 4096)  # touch r1 -> r2 becomes LRU
    h.get(0x3000, 4096)  # evicts r2
    assert h.destroyed == [r2]
    assert h.get(0x1000, 4096) == r1  # still cached


def test_active_regions_skipped_for_eviction():
    h = Harness(capacity=2)
    r1 = h.get(0x1000, 4096)
    r2 = h.get(0x2000, 4096)
    h.active.update({r1, r2})
    h.get(0x3000, 4096)  # nothing idle -> overflow, no destroy
    assert h.destroyed == []
    assert len(h.cache) == 3
    assert h.cache.counters["region_cache_overflow"] == 1


def test_unbounded_capacity_never_evicts():
    h = Harness(capacity=None)
    for i in range(100):
        h.get(0x1000 + i * 0x10000, 4096)
    assert h.destroyed == []
    assert len(h.cache) == 100


def test_forget_removes_entry():
    h = Harness(capacity=4)
    rid = h.get(0x1000, 4096)
    h.cache.forget(rid)
    assert len(h.cache) == 0
    rid2 = h.get(0x1000, 4096)
    assert rid2 != rid  # re-declared


def test_flush_destroys_everything():
    h = Harness(capacity=8)
    rids = [h.get(0x1000 * (i + 1), 4096) for i in range(3)]

    class Ctx:
        env = h.env

        def charge(self, ns):
            yield h.env.timeout(ns)

    proc = h.env.process(h.cache.flush(Ctx()))
    h.env.run(until=proc)
    assert sorted(h.destroyed) == sorted(rids)
    assert len(h.cache) == 0


def test_lookup_charges_time():
    h = Harness(capacity=4)
    h.get(0x1000, 4096)
    t0 = h.env.now
    h.get(0x1000, 4096)  # pure hit: only the lookup cost
    assert h.env.now - t0 == OpenMXConfig().cache_lookup_ns


def test_forget_unknown_or_double_is_noop():
    h = Harness(capacity=4)
    h.cache.forget(999)  # never declared
    rid = h.get(0x1000, 4096)
    h.cache.forget(rid)
    h.cache.forget(rid)  # second report of the same dead region
    assert len(h.cache) == 0


def test_forget_after_eviction_is_noop():
    # Eviction must clean the rid reverse map too, or a later dead-region
    # report would KeyError on the already-gone LRU entry.
    h = Harness(capacity=2)
    r1 = h.get(0x1000, 4096)
    h.get(0x2000, 4096)
    h.get(0x3000, 4096)  # evicts r1
    assert h.destroyed == [r1]
    h.cache.forget(r1)
    assert len(h.cache) == 2


def test_reuse_sweep_eviction_scans_only_the_lru_entry():
    # The paper's reuse sweep: a rolling window of idle regions.  Each
    # eviction must stop at the first (oldest) entry — the scan counter
    # equals the number of evictions, not evictions * cache size.
    h = Harness(capacity=4)
    for i in range(12):
        h.get(0x1000 + i * 0x10000, 4096)
    assert len(h.destroyed) == 8
    assert h.cache.counters["region_cache_evict_scan"] == 8
    assert h.cache.counters["region_cache_evict"] == 8


def test_eviction_scan_length_counts_skipped_busy_entries():
    h = Harness(capacity=3)
    r1 = h.get(0x1000, 4096)
    r2 = h.get(0x2000, 4096)
    h.get(0x3000, 4096)
    h.active.update({r1, r2})  # LRU and next are mid-communication
    h.get(0x4000, 4096)  # scans r1, r2 (busy), evicts the third
    assert h.cache.counters["region_cache_evict_scan"] == 3
    assert h.cache.counters["region_cache_evict"] == 1
