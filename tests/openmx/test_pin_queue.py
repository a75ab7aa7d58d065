"""Fair pin-budget admission: FIFO reservations, bounded waits, share caps.

The legacy path races every pinner against ``PhysicalMemory.account_pin``
(first page wins); a heavy pinner that keeps the budget saturated starves
everyone else into the retry/fallback ladder.  These tests pin down the
queue's contract at both layers:

* :class:`PinService` — reservation accounting, strict FIFO (no overtaking
  a budget-blocked head), starvation-free wakeup on unpin, bounded waits
  that expire into a denial, per-owner share caps that are skipped rather
  than wedging the queue;
* :class:`PinManager` — ``pin_queue_enabled`` admission in front of the pin
  loop: queued acquires complete once headroom appears, denials degrade the
  region (``pin_denied``) instead of hammering the retry ladder.
"""

import pytest

from repro.cluster.network import Fabric
from repro.hw import PAGE_SIZE, XEON_E5460, CpuCore, Host, PhysicalMemory
from repro.kernel import Kernel, PinService
from repro.kernel.context import AcquiringContext
from repro.obs.metrics import Counters
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.openmx.pin_manager import PinManager
from repro.openmx.regions import RegionState, Segment, UserRegion
from repro.sim import Environment


# -- PinService reservation protocol ----------------------------------------

@pytest.fixture
def rig():
    env = Environment()
    core = CpuCore(env, XEON_E5460, "h0", 0)
    mem = PhysicalMemory(100 * PAGE_SIZE, max_pinned_fraction=1.0)
    return env, core, mem, PinService()


def test_reserve_consume_release_accounting(rig):
    env, core, mem, pin = rig
    assert pin.budget_headroom(mem) == 100
    token = pin.try_reserve(mem, 60, owner=1)
    assert token is not None
    assert pin.budget_headroom(mem) == 40
    # Consuming converts reserved pages to really-pinned ones 1:1 — the
    # caller's account_pin grows pinned_frames by what _reserved shrinks.
    pin.consume_reservation(token, 25)
    assert token.pages == 35
    pin.release_reservation(token)
    assert pin.budget_headroom(mem) == 100 - mem.pinned_frames


def test_try_reserve_cannot_overtake_queue(rig):
    env, core, mem, pin = rig
    big = pin.try_reserve(mem, 90, owner=1)
    results = []

    def waiter():
        token = yield from pin.reserve_budget(core, mem, 50, 2, 10**9)
        results.append(token)

    def heavy():
        # The saturating owner keeps trying to re-reserve: with a waiter
        # queued it must be refused even though 10 pages of headroom exist.
        yield env.timeout(1_000)
        assert pin.try_reserve(mem, 10, owner=1) is None
        pin.release_reservation(big)  # headroom appears -> waiter admitted

    env.run(until=env.all_of([env.process(waiter()), env.process(heavy())]))
    assert results and results[0] is not None
    assert results[0].pages == 50
    assert pin.budget_waits == 1
    assert pin.budget_timeouts.value == 0


def test_fifo_head_blocks_smaller_followers(rig):
    env, core, mem, pin = rig
    hold = pin.try_reserve(mem, 95, owner=1)
    order = []

    def queued(label, npages, delay):
        yield env.timeout(delay)
        token = yield from pin.reserve_budget(core, mem, npages, None, 10**9)
        order.append((label, env.now, token))

    procs = [env.process(queued("large", 60, 0)),
             env.process(queued("small", 5, 10))]

    def release():
        yield env.timeout(1_000)
        # 5 pages of headroom: enough for "small", but the large head must
        # not be overtaken (strict FIFO = starvation freedom for big pins).
        assert order == []
        pin.release_reservation(hold)

    env.run(until=env.all_of(procs + [env.process(release())]))
    assert [label for label, _, _ in order] == ["large", "small"]
    assert all(token is not None for _, _, token in order)


def test_bounded_wait_expires_into_denial(rig):
    env, core, mem, pin = rig
    hold = pin.try_reserve(mem, 100, owner=1)
    results = []

    def waiter():
        token = yield from pin.reserve_budget(core, mem, 10, 2,
                                              max_wait_ns=5_000)
        results.append(token)

    def release_late():
        yield env.timeout(50_000)
        pin.release_reservation(hold)

    env.run(until=env.all_of([env.process(waiter()),
                              env.process(release_late())]))
    assert results == [None]
    assert pin.budget_timeouts.value == 1
    # The expired waiter was lazily removed; the budget is whole again.
    assert pin._waiters == []
    assert pin.budget_headroom(mem) == 100


def test_share_capped_owner_is_skipped_not_wedging(rig):
    env, core, mem, pin = rig
    greedy = pin.try_reserve(mem, 70, owner=1, max_share=0.8)
    assert greedy is not None  # 70 <= cap of 80
    order = []

    def queued(label, npages, owner, delay):
        yield env.timeout(delay)
        token = yield from pin.reserve_budget(core, mem, npages, owner,
                                              10**9, max_share=0.8)
        order.append(label)
        return token

    p_greedy = env.process(queued("greedy-again", 30, 1, 0))  # over cap
    p_other = env.process(queued("other", 30, 2, 10))

    env.run(until=p_other)
    # The over-cap head is skipped (not granted, not dropped); the
    # unrelated owner behind it is admitted.
    assert order == ["other"]
    pin.release_reservation(greedy)
    env.run(until=p_greedy)
    assert order == ["other", "greedy-again"]


def test_unpin_wakeup_is_starvation_free(rig):
    """A saturating pin/unpin loop cannot hold a queued waiter out: every
    unpin drains the queue before the loop can re-reserve."""
    env, core, mem, pin = rig
    admitted = []

    def hog():
        token = pin.try_reserve(mem, 100, owner=1)
        for _ in range(5):
            yield env.timeout(1_000)
            pin.release_reservation(token)
            token = pin.try_reserve(mem, 100, owner=1)
            if token is None:  # the waiter got in first, as it must
                return
        raise AssertionError("hog re-reserved past a queued waiter")

    def waiter():
        yield env.timeout(100)
        token = yield from pin.reserve_budget(core, mem, 20, 2, 10**9)
        admitted.append(token)

    env.run(until=env.all_of([env.process(hog()), env.process(waiter())]))
    assert admitted and admitted[0] is not None


# -- PinManager admission (pin_queue_enabled) --------------------------------

def build_mgr(max_pinned, mode=PinningMode.PIN_PER_COMM, **cfg):
    env = Environment()
    host = Host(env, "h0", XEON_E5460)
    kernel = Kernel(host)
    Fabric(env).attach(host.nic)
    config = OpenMXConfig(pinning_mode=mode, pin_queue_enabled=True, **cfg)
    counters = Counters()
    mgr = PinManager(env, kernel, config, counters)
    proc = kernel.new_process("app", core_index=1)
    host.memory.max_pinned = max_pinned
    return env, host, kernel, mgr, proc, counters


def region_of(proc, nbytes, rid=1, owner=None):
    va = proc.malloc(nbytes)
    return UserRegion(rid, proc.aspace, (Segment(va, nbytes),), owner=owner)


def test_queued_acquire_completes_after_unpin():
    env, host, kernel, mgr, proc, counters = build_mgr(max_pinned=24)
    region_a = region_of(proc, 16 * PAGE_SIZE, rid=1, owner=1)
    region_b = region_of(proc, 16 * PAGE_SIZE, rid=2, owner=2)
    ctx = AcquiringContext(env, proc.core)
    results = {}

    def b_side():
        results["b"] = yield from mgr.acquire_pinned(ctx, region_b)

    def a_side():
        results["a"] = yield from mgr.acquire_pinned(ctx, region_a)
        mgr.comm_started(region_a)
        env.process(b_side())
        yield env.timeout(200_000)  # B is parked on the budget queue
        assert kernel.pin.budget_waits == 1
        assert results.get("b") is None
        yield from mgr.comm_done(ctx, region_a)  # uncached mode: unpins

    env.run(until=env.process(a_side()))
    env.run()
    assert results == {"a": True, "b": True}
    assert region_b.state is RegionState.PINNED
    assert counters["pin_budget_wait"] == 1
    assert counters["pin_budget_denied"] == 0


def test_denied_acquire_degrades_with_pin_denied():
    env, host, kernel, mgr, proc, counters = build_mgr(
        max_pinned=24, pin_queue_wait_max_ns=5_000)
    region_a = region_of(proc, 16 * PAGE_SIZE, rid=1, owner=1)
    region_b = region_of(proc, 16 * PAGE_SIZE, rid=2, owner=2)
    ctx = AcquiringContext(env, proc.core)
    results = {}

    def work():
        results["a"] = yield from mgr.acquire_pinned(ctx, region_a)
        mgr.comm_started(region_a)  # holds the budget past B's bounded wait
        results["b"] = yield from mgr.acquire_pinned(ctx, region_b)

    env.run(until=env.process(work()))
    assert results == {"a": True, "b": False}
    # The denial is a graceful-degradation signal, not a failure state:
    # the driver sees pin_denied and goes copy-through without retrying.
    assert region_b.pin_denied is True
    assert region_b.state is RegionState.UNPINNED
    assert counters["pin_budget_denied"] == 1
    assert kernel.pin.budget_timeouts.value == 1
    assert host.memory.pinned_frames == 16  # only A's pages


def test_same_owner_share_cap_blocks_second_region():
    env, host, kernel, mgr, proc, counters = build_mgr(
        max_pinned=32, pin_queue_max_share=0.5, pin_queue_wait_max_ns=5_000)
    region_a = region_of(proc, 16 * PAGE_SIZE, rid=1, owner=7)
    region_b = region_of(proc, 16 * PAGE_SIZE, rid=2, owner=7)
    ctx = AcquiringContext(env, proc.core)
    results = {}

    def work():
        results["a"] = yield from mgr.acquire_pinned(ctx, region_a)
        mgr.comm_started(region_a)
        # Same owner, cap is 16 pages: the second region must be refused
        # even though the host budget has 16 pages of headroom left.
        results["b"] = yield from mgr.acquire_pinned(ctx, region_b)

    env.run(until=env.process(work()))
    assert results == {"a": True, "b": False}
    assert region_b.pin_denied is True
    assert host.memory.pinned_frames == 16


def test_queue_disabled_is_legacy_path():
    env = Environment()
    host = Host(env, "h0", XEON_E5460)
    kernel = Kernel(host)
    Fabric(env).attach(host.nic)
    config = OpenMXConfig()
    assert config.pin_queue_enabled is False  # legacy default
    mgr = PinManager(env, kernel, config, Counters())
    proc = kernel.new_process("app", core_index=1)
    region = region_of(proc, 8 * PAGE_SIZE)
    ctx = AcquiringContext(env, proc.core)

    def work():
        return (yield from mgr.acquire_pinned(ctx, region))

    assert env.run(until=env.process(work())) is True
    assert kernel.pin.budget_waits == 0
    assert kernel.pin.reserved_pages == 0
    assert kernel.pin.owner_footprint == {}
