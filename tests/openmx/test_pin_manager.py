"""Tests for the pinning strategy engine."""

from repro.cluster.network import Fabric
from repro.hw import PAGE_SIZE, XEON_E5460, Host
from repro.kernel import Kernel
from repro.kernel.context import AcquiringContext
from repro.obs.metrics import Counters
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.openmx.pin_manager import PinManager
from repro.openmx.regions import RegionState, Segment, UserRegion
from repro.sim import Environment


def build(mode=PinningMode.PIN_PER_COMM, **host_kw):
    env = Environment()
    host = Host(env, "h0", XEON_E5460, **host_kw)
    kernel = Kernel(host)
    Fabric(env).attach(host.nic)
    config = OpenMXConfig(pinning_mode=mode)
    counters = Counters()
    mgr = PinManager(env, kernel, config, counters)
    proc = kernel.new_process("app", core_index=1)
    return env, host, kernel, mgr, proc, counters


def region_of(proc, nbytes, rid=1):
    va = proc.malloc(nbytes)
    return UserRegion(rid, proc.aspace, (Segment(va, nbytes),)), va


def test_acquire_pinned_charges_and_pins():
    env, host, kernel, mgr, proc, _ = build()
    region, _ = region_of(proc, 16 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        ok = yield from mgr.acquire_pinned(ctx, region)
        return ok

    assert env.run(until=env.process(work())) is True
    assert region.state is RegionState.PINNED
    expected = kernel.pin.pin_base_ns(proc.core) + 16 * kernel.pin.pin_per_page_ns(proc.core)
    assert abs(env.now - expected) <= 16
    assert host.memory.pinned_frames == 16


def test_acquire_pinned_invalid_region_returns_false():
    env, host, kernel, mgr, proc, counters = build()
    va = proc.aspace.mmap(2 * PAGE_SIZE)
    # Region claims 8 pages but the mapping only covers 2 (guard gap beyond).
    region = UserRegion(1, proc.aspace, (Segment(va, 8 * PAGE_SIZE),))
    ctx = AcquiringContext(env, proc.core)

    def work():
        return (yield from mgr.acquire_pinned(ctx, region))

    assert env.run(until=env.process(work())) is False
    assert region.state is RegionState.FAILED
    assert host.memory.pinned_frames == 0
    assert counters["pin_failed"] == 1


def test_comm_done_unpins_in_uncached_mode():
    env, host, kernel, mgr, proc, counters = build(PinningMode.PIN_PER_COMM)
    region, _ = region_of(proc, 8 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        mgr.comm_started(region)
        yield from mgr.acquire_pinned(ctx, region)
        yield from mgr.comm_done(ctx, region)

    env.run(until=env.process(work()))
    assert host.memory.pinned_frames == 0
    assert counters["region_unpinned"] == 1


def test_comm_done_keeps_pinned_in_cached_mode():
    env, host, kernel, mgr, proc, _ = build(PinningMode.CACHE)
    region, _ = region_of(proc, 8 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)
    times = {}

    def work():
        mgr.comm_started(region)
        yield from mgr.acquire_pinned(ctx, region)
        yield from mgr.comm_done(ctx, region)
        times["first"] = env.now
        # Second use: cache hit, no pin cost.
        mgr.comm_started(region)
        yield from mgr.acquire_pinned(ctx, region)
        times["second_acquire"] = env.now
        yield from mgr.comm_done(ctx, region)

    env.run(until=env.process(work()))
    assert host.memory.pinned_frames == 8
    assert times["second_acquire"] == times["first"]  # zero-cost reacquire


def test_overlapped_pin_advances_watermark_over_time():
    env, host, kernel, mgr, proc, _ = build(PinningMode.OVERLAP)
    region, _ = region_of(proc, 256 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)
    samples = []

    def sampler():
        for _ in range(50):
            samples.append(region.watermark)
            yield env.timeout(1_000)

    # The overlapped syscall pins from its own process; the caller goes on.
    env.process(mgr.acquire_pinned(ctx, region))
    env.process(sampler())
    env.run()
    assert region.state is RegionState.PINNED
    assert samples[0] < 256  # not pinned instantly
    assert any(0 < s < 256 for s in samples)  # visible intermediate progress
    assert sorted(samples) == samples  # monotonic


def test_invalidation_of_idle_region_unpins_instantly():
    env, host, kernel, mgr, proc, counters = build(PinningMode.CACHE)
    region, _ = region_of(proc, 4 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        mgr.comm_started(region)
        yield from mgr.acquire_pinned(ctx, region)
        yield from mgr.comm_done(ctx, region)
        mgr.invalidated(region)

    env.run(until=env.process(work()))
    assert host.memory.pinned_frames == 0
    assert region.state is RegionState.UNPINNED
    assert counters["invalidate_unpinned"] == 1
    assert not region.destroyed  # still declared: repinnable on next use


def test_invalidation_during_active_comm_is_deferred():
    env, host, kernel, mgr, proc, counters = build(PinningMode.CACHE)
    region, _ = region_of(proc, 4 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        mgr.comm_started(region)
        yield from mgr.acquire_pinned(ctx, region)
        mgr.invalidated(region)  # munmap while the transfer is in flight
        assert host.memory.pinned_frames == 4  # frames kept for the transfer
        yield from mgr.comm_done(ctx, region)

    env.run(until=env.process(work()))
    assert counters["invalidate_deferred"] == 1
    assert host.memory.pinned_frames == 0  # honoured at completion
    assert not region.invalidate_pending


def test_invalidation_cancels_inflight_pinner():
    env, host, kernel, mgr, proc, counters = build(PinningMode.OVERLAP_CACHE)
    region, _ = region_of(proc, 512 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def invalidator():
        yield env.timeout(10_000)  # mid-pin (full pin takes ~58us)
        mgr.invalidated(region)

    env.process(mgr.acquire_pinned(ctx, region))
    env.process(invalidator())
    env.run()
    assert region.state is not RegionState.PINNED
    assert host.memory.pinned_frames == 0
    assert counters["pin_cancelled"] == 1


def test_repin_after_invalidation():
    env, host, kernel, mgr, proc, _ = build(PinningMode.CACHE)
    region, _ = region_of(proc, 4 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        yield from mgr.acquire_pinned(ctx, region)
        mgr.invalidated(region)
        ok = yield from mgr.acquire_pinned(ctx, region)  # Figure 3: repin
        return ok

    assert env.run(until=env.process(work())) is True
    assert region.state is RegionState.PINNED


def test_concurrent_acquire_waits_for_single_pin():
    env, host, kernel, mgr, proc, _ = build(PinningMode.CACHE)
    region, _ = region_of(proc, 64 * PAGE_SIZE)
    results = []

    def user(core):
        ctx = AcquiringContext(env, core)
        ok = yield from mgr.acquire_pinned(ctx, region)
        results.append((ok, env.now))

    env.process(user(host.cores[1]))
    env.process(user(host.cores[2]))
    env.run()
    assert [ok for ok, _ in results] == [True, True]
    assert host.memory.pinned_frames == 64  # pinned exactly once
    assert kernel.pin.pins == 1


def test_reclaim_unpins_lru_idle_region():
    env, host, kernel, mgr, proc, counters = build(
        PinningMode.CACHE, memory_bytes=4096 * PAGE_SIZE
    )
    # Limit: 90% of 4096 frames; make two regions that cannot both stay pinned.
    big = 2000 * PAGE_SIZE
    r1, _ = region_of(proc, big, rid=1)
    r2, _ = region_of(proc, big, rid=2)
    ctx = AcquiringContext(env, proc.core)

    def work():
        mgr.comm_started(r1)
        yield from mgr.acquire_pinned(ctx, r1)
        yield from mgr.comm_done(ctx, r1)  # r1 now idle but pinned
        mgr.comm_started(r2)
        ok = yield from mgr.acquire_pinned(ctx, r2)  # must reclaim r1
        yield from mgr.comm_done(ctx, r2)
        return ok

    assert env.run(until=env.process(work())) is True
    assert r1.watermark == 0  # reclaimed
    assert r2.state is RegionState.PINNED
    assert counters["reclaim_unpinned"] == 1


def test_region_destroyed_unpins_and_wakes():
    env, host, kernel, mgr, proc, _ = build(PinningMode.CACHE)
    region, _ = region_of(proc, 8 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        yield from mgr.acquire_pinned(ctx, region)
        yield from mgr.region_destroyed(ctx, region)

    env.run(until=env.process(work()))
    assert host.memory.pinned_frames == 0
    assert region.destroyed


def test_resumed_pin_failure_releases_earlier_batches():
    # A pin cancelled between batches leaves the region resumable with its
    # first batch still attached and pinned.  If the *resumed* call then
    # fails on an invalid address, pin_pages_batched's rollback covers only
    # that call's own frames — the earlier batch must be unpinned by the
    # failure path, not silently discarded by mark_failed() and leaked.
    env, host, kernel, mgr, proc, counters = build()
    va = proc.aspace.mmap(16 * PAGE_SIZE)
    # 32-page region over a 16-page mapping: pages 16+ are invalid.
    region = UserRegion(1, proc.aspace, (Segment(va, 32 * PAGE_SIZE),))
    ctx = AcquiringContext(env, proc.core)
    base = kernel.pin.pin_base_ns(proc.core)
    per_page = kernel.pin.pin_per_page_ns(proc.core)

    def cancel_mid_second_batch():
        # Fires inside the second batch's charge, after batch 1 attached.
        yield env.timeout(base + 17 * per_page)
        region.pin_cancelled = True

    def first_attempt():
        return (yield from mgr.acquire_pinned(ctx, region))

    env.process(cancel_mid_second_batch())
    assert env.run(until=env.process(first_attempt())) is False
    assert region.state is RegionState.UNPINNED  # resumable
    assert region.watermark == 16
    assert host.memory.pinned_frames == 16

    def second_attempt():
        return (yield from mgr.acquire_pinned(ctx, region))

    assert env.run(until=env.process(second_attempt())) is False
    assert region.state is RegionState.FAILED
    assert host.memory.pinned_frames == 0  # nothing leaked
    assert counters["pin_failed"] == 1
    assert counters["pin_failed_rollback_pages"] == 16
