"""Tests for the pinning service: costs, rollback, notifier interplay."""

import pytest

from repro.hw import PAGE_SIZE, XEON_E5460, CpuCore, PhysicalMemory
from repro.kernel import AddressSpace, PinError, PinService
from repro.sim import Environment


@pytest.fixture
def rig():
    env = Environment()
    core = CpuCore(env, XEON_E5460, "h0", 0)
    mem = PhysicalMemory(1024 * PAGE_SIZE)
    aspace = AddressSpace(mem, "p0")
    return env, core, aspace, PinService()


def run(env, gen):
    return env.run(until=env.process(gen))


def test_pin_charges_table1_cost_fraction(rig):
    env, core, aspace, pin = rig
    va = aspace.mmap(16 * PAGE_SIZE)

    def work():
        frames = yield from pin.pin_user_pages(core, aspace, va, 16)
        return frames

    frames = run(env, work())
    assert len(frames) == 16
    expected = int(XEON_E5460.pin_unpin_cost_ns(16) * pin.pin_fraction)
    # Per-page truncation may shave a few ns; base+16*per_page at 0.75.
    assert abs(env.now - expected) <= 16
    assert all(f.pinned for f in frames)
    assert aspace.memory.pinned_frames == 16


def test_unpin_charges_remaining_fraction(rig):
    env, core, aspace, pin = rig
    va = aspace.mmap(8 * PAGE_SIZE)

    def work():
        frames = yield from pin.pin_user_pages(core, aspace, va, 8)
        t_pin = env.now
        yield from pin.unpin_user_pages(core, aspace, frames)
        return t_pin

    t_pin = run(env, work())
    total = XEON_E5460.pin_unpin_cost_ns(8)
    assert env.now == t_pin + (total - int(total * pin.pin_fraction))
    assert aspace.memory.pinned_frames == 0


def test_pin_unmapped_range_fails_with_pin_error(rig):
    env, core, aspace, pin = rig
    va = aspace.mmap(2 * PAGE_SIZE)

    def work():
        with pytest.raises(PinError):
            yield from pin.pin_user_pages(core, aspace, va, 4)  # 2 pages short
        return True

    assert run(env, work())
    assert pin.pin_failures.value == 1
    assert aspace.memory.pinned_frames == 0


def test_pin_zero_pages_rejected(rig):
    env, core, aspace, pin = rig

    def work():
        with pytest.raises(PinError):
            yield from pin.pin_user_pages(core, aspace, 0x1000, 0)
        return True

    assert run(env, work())


def test_partial_pin_failure_rolls_back(rig):
    env, core, aspace, pin = rig
    # Map 4 pages, pin limit of 2 frames -> the pin of page 3 fails.
    mem = PhysicalMemory(100 * PAGE_SIZE, max_pinned_fraction=0.02)  # 2 frames
    aspace = AddressSpace(mem, "tight")
    va = aspace.mmap(4 * PAGE_SIZE)

    def work():
        with pytest.raises(PinError):
            yield from pin.pin_user_pages(core, aspace, va, 4)
        return True

    assert run(env, work())
    assert mem.pinned_frames == 0  # rollback unpinned everything


def test_mmu_notifier_unpin_during_munmap(rig):
    """The paper's core safety property: a driver that unpins from its MMU
    notifier never holds stale translations after munmap."""
    env, core, aspace, pin = rig
    va = aspace.mmap(4 * PAGE_SIZE)
    pinned_frames = []

    class Driver:
        def invalidate_range(self, start, end):
            if pinned_frames and start <= va < end:
                pin.unpin_now(aspace, pinned_frames)
                pinned_frames.clear()

        def release(self):
            pass

    aspace.notifiers.register(Driver())

    def work():
        frames = yield from pin.pin_user_pages(core, aspace, va, 4)
        pinned_frames.extend(frames)
        aspace.munmap(va, 4 * PAGE_SIZE)

    run(env, work())
    assert aspace.memory.pinned_frames == 0
    assert aspace.orphan_count == 0
    assert aspace.memory.used_frames == 0


def test_without_notifier_munmap_leaves_pinned_orphans(rig):
    """The failure mode of notifier-less caches: frames leak as orphans and
    the cached translation goes stale."""
    env, core, aspace, pin = rig
    va = aspace.mmap(2 * PAGE_SIZE)

    def work():
        frames = yield from pin.pin_user_pages(core, aspace, va, 2)
        aspace.munmap(va, 2 * PAGE_SIZE)
        return frames

    frames = run(env, work())
    assert aspace.orphan_count == 2
    assert all(f.pinned for f in frames)


def test_pin_fraction_validation():
    with pytest.raises(ValueError):
        PinService(0.0)
    with pytest.raises(ValueError):
        PinService(1.0)


# -- fused fast path ----------------------------------------------------------


class _ZeroHook:
    """A fault hook that injects nothing: it only disables fusing."""

    def pin_delay_ns(self, npages):
        return 0

    def pin_should_fail(self):
        return False


def _pin_once(npages, contend=False, per_page=False):
    """Fresh rig, one pin call; returns (final now, fused_pins, nframes).

    ``per_page`` forces the historical per-page loop through a zero-delay
    fault hook."""
    env = Environment()
    core = CpuCore(env, XEON_E5460, "h0", 0)
    aspace = AddressSpace(PhysicalMemory(1024 * PAGE_SIZE), "p0")
    pin = PinService()
    if per_page:
        pin.fault_hook = _ZeroHook()
    va = aspace.mmap(npages * PAGE_SIZE)

    def rival():
        yield from core.execute(50, priority=0)

    def work():
        if contend:
            env.process(rival())
            yield env.timeout(0)  # let the rival claim the core first
        frames = yield from pin.pin_user_pages(core, aspace, va, npages)
        return frames

    frames = env.run(until=env.process(work()))
    return env.now, pin.fused_pins, len(frames)


def test_uncontended_pin_is_fused_with_identical_timing():
    # The fused single-charge path must land on exactly the same completion
    # instant as the historical per-page charge ladder (forced here via a
    # zero-delay fault hook, which disables fusing).
    t_fused, fused, n = _pin_once(16)
    t_slow, slow_fused, n_slow = _pin_once(16, per_page=True)
    assert fused == 1 and slow_fused == 0
    assert n == n_slow == 16
    assert t_fused == t_slow


def test_contended_core_disables_fusing_same_timing():
    # With another claimant on the core the intermediate re-acquisitions
    # are observable, so the per-page path must run — and the fused gate
    # must not change the outcome when it stands down.
    t, fused, n = _pin_once(8, contend=True)
    assert fused == 0 and n == 8
    t2, fused2, _ = _pin_once(8, contend=True, per_page=True)
    assert fused2 == 0 and t2 == t


def test_fault_hook_disables_fusing():
    env = Environment()
    core = CpuCore(env, XEON_E5460, "h0", 0)
    aspace = AddressSpace(PhysicalMemory(64 * PAGE_SIZE), "p0")
    pin = PinService()
    pin.fault_hook = _ZeroHook()
    va = aspace.mmap(2 * PAGE_SIZE)

    def work():
        return (yield from pin.pin_user_pages(core, aspace, va, 2))

    frames = env.run(until=env.process(work()))
    assert pin.fused_pins == 0 and len(frames) == 2


def test_near_pin_limit_falls_back_to_per_page_path():
    # can_pin() fails for the whole batch: the slow path must run (it is
    # the one that can fail partway and roll back with exact charges).
    env = Environment()
    mem = PhysicalMemory(10 * PAGE_SIZE)  # max_pinned = 9 frames
    core = CpuCore(env, XEON_E5460, "h0", 0)
    aspace = AddressSpace(mem, "p0")
    pin = PinService()
    va = aspace.mmap(10 * PAGE_SIZE)

    def work():
        try:
            yield from pin.pin_user_pages(core, aspace, va, 10)
        except PinError:
            return "failed"
        return "pinned"

    assert env.run(until=env.process(work())) == "failed"
    assert pin.fused_pins == 0
    assert pin.pin_failures.value == 1
    assert mem.pinned_frames == 0  # rollback unpinned everything
