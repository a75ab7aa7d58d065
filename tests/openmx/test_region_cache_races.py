"""Re-entrancy and validity races in the user-space region cache.

``get`` suspends twice (lookup charge, declaration syscall) and eviction
suspends inside the destroy syscall, so ``forget``/``flush``/other ``get``
calls interleave with in-flight operations.  These are the regression tests
for the torture-suite hardening: half-removed entries, declarations racing a
flush, double declarations of one key, and generation-stale hits.
"""

from repro.obs.metrics import Counters
from repro.openmx.config import OpenMXConfig
from repro.openmx.region_cache import RegionCache
from repro.openmx.regions import Segment
from repro.sim import Environment


class Harness:
    """Cache against a fake backend whose syscalls take simulated time."""

    def __init__(self, capacity, latency_ns=100, range_gen=None):
        self.env = Environment()
        self.declared = {}
        self.destroyed = []
        self.next_rid = 1
        self.active = set()
        self.latency_ns = latency_ns
        self.cache = RegionCache(
            OpenMXConfig(),
            declare=self._declare,
            destroy=self._destroy,
            is_idle=lambda rid: rid not in self.active,
            capacity=capacity,
            counters=Counters(),
            range_gen=range_gen,
        )

    def _declare(self, ctx, segments):
        yield self.env.timeout(self.latency_ns)
        rid = self.next_rid
        self.next_rid += 1
        self.declared[rid] = segments
        return rid

    def _destroy(self, ctx, rid):
        yield self.env.timeout(self.latency_ns)
        self.destroyed.append(rid)
        del self.declared[rid]

    def ctx(self):
        env = self.env

        class Ctx:
            def charge(self, ns):
                yield env.timeout(ns)

        return Ctx()

    def get_proc(self, va, length):
        return self.env.process(
            self.cache.get(self.ctx(), (Segment(va, length),)))

    def get(self, va, length):
        return self.env.run(until=self.get_proc(va, length))


def test_forget_during_inflight_eviction_is_harmless():
    """The evict victim is unlinked before the destroy syscall suspends, so
    a forget() racing the destroy must neither double-remove nor crash."""
    h = Harness(capacity=1)
    r1 = h.get(0x1000, 4096)
    p = h.get_proc(0x2000, 4096)  # miss: evicts r1, destroy suspends

    def racer():
        # Lookup charge is 250 ns, destroy occupies [250, 350): land inside.
        yield h.env.timeout(300)
        h.cache.forget(r1)
        h.cache.forget(r1)  # double forget: still a no-op

    h.env.run(until=h.env.all_of([p, h.env.process(racer())]))
    assert h.destroyed.count(r1) == 1
    assert len(h.cache) == 1  # only the new entry


def test_flush_races_inflight_declaration():
    """A declaration in flight across a flush must not resurrect an entry
    in the emptied cache — the region stays declared but uncached."""
    h = Harness(capacity=4)
    p = h.get_proc(0x1000, 4096)  # miss: declaration syscall in flight

    def flusher():
        yield h.env.timeout(300)  # after the lookup charge, mid-declare
        yield from h.cache.flush(h.ctx())

    h.env.run(until=h.env.all_of([p, h.env.process(flusher())]))
    rid = p.value
    assert rid in h.declared  # still declared (close sweeps it later)...
    assert len(h.cache) == 0  # ...but never entered the flushed cache
    assert h.cache.counters["region_cache_declare_raced"] == 1


def test_concurrent_gets_for_same_key_keep_one_entry():
    """Two concurrent misses on one key both declare; the loser retires its
    region and returns the incumbent so forget() can never drop the wrong
    entry later."""
    h = Harness(capacity=4)
    p1 = h.get_proc(0x1000, 4096)
    p2 = h.get_proc(0x1000, 4096)
    h.env.run(until=h.env.all_of([p1, p2]))
    assert p1.value == p2.value
    assert len(h.cache) == 1
    assert len(h.declared) == 1  # the duplicate was undeclared
    assert len(h.destroyed) == 1
    assert h.cache.counters["region_cache_declare_raced"] == 1


def test_concurrent_gets_busy_loser_is_left_to_the_driver():
    """If the losing duplicate is mid-communication it cannot be destroyed
    inline; it is simply never cached (the driver destroys it on release)."""
    h = Harness(capacity=4)
    h.active = {1, 2}  # whatever gets declared counts as busy
    p1 = h.get_proc(0x1000, 4096)
    p2 = h.get_proc(0x1000, 4096)
    h.env.run(until=h.env.all_of([p1, p2]))
    assert p1.value == p2.value == 1  # both resolve to the incumbent
    assert h.destroyed == []
    assert 2 in h.declared  # uncached leftover, swept at endpoint close
    assert len(h.cache) == 1


def test_stale_generation_hit_is_a_miss():
    """A hit whose mapping generations changed under it (free + re-mmap at
    the same address) must redeclare, not reuse the dead layout."""
    gen = {"v": 0}
    h = Harness(capacity=4, range_gen=lambda segments: gen["v"])
    r1 = h.get(0x1000, 4096)
    assert h.get(0x1000, 4096) == r1  # generation unchanged: plain hit
    gen["v"] = 1  # the mapping under the range was recycled
    r2 = h.get(0x1000, 4096)
    assert r2 != r1
    assert h.destroyed == [r1]
    assert h.cache.counters["region_cache_stale_hit"] == 1
    assert h.cache.counters["region_cache_hit"] == 1
    # The fresh entry is valid for the new generation.
    assert h.get(0x1000, 4096) == r2


def test_stale_busy_entry_is_uncached_not_destroyed():
    gen = {"v": 0}
    h = Harness(capacity=4, range_gen=lambda segments: gen["v"])
    r1 = h.get(0x1000, 4096)
    h.active.add(r1)  # still mid-communication
    gen["v"] = 1
    r2 = h.get(0x1000, 4096)
    assert r2 != r1
    assert h.destroyed == []  # busy: merely uncached
    assert r1 in h.declared
    assert h.cache.counters["region_cache_stale_hit"] == 1


def test_forget_ignores_rid_no_longer_owning_its_key():
    """forget() must only drop the forward mapping if it still points at the
    forgotten rid (a racing re-declaration may own the key by now)."""
    h = Harness(capacity=4)
    r1 = h.get(0x1000, 4096)
    # Simulate the kernel reporting r1 dead *after* the key was re-declared:
    # retire r1 from the cache, declare a fresh region for the same key.
    h.cache.forget(r1)
    r2 = h.get(0x1000, 4096)
    assert r2 != r1
    h.cache.forget(r1)  # late duplicate report for the old rid
    assert len(h.cache) == 1  # r2's entry survived
    assert h.get(0x1000, 4096) == r2
    assert h.cache.counters["region_cache_hit"] == 1


def test_flush_skips_entries_removed_while_it_slept():
    """flush() suspends per destroy; entries forgotten during those windows
    must not be destroyed twice."""
    h = Harness(capacity=4)
    r1 = h.get(0x1000, 4096)
    r2 = h.get(0x2000, 4096)
    flush_proc = h.env.process(h.cache.flush(h.ctx()))

    def racer():
        yield h.env.timeout(50)  # inside the first destroy syscall
        h.cache.forget(r2)

    h.env.run(until=h.env.all_of([flush_proc, h.env.process(racer())]))
    assert h.destroyed.count(r1) == 1
    assert h.destroyed.count(r2) == 0  # forgotten mid-flush, skipped
    assert len(h.cache) == 0
