"""Tests for physical memory frames and pin accounting."""

import tracemalloc

import numpy as np
import pytest

from repro.hw import PAGE_SIZE, OutOfMemory, PhysicalMemory
from repro.util.units import GIB


def make_mem(nframes=16, max_pinned_fraction=0.9):
    return PhysicalMemory(nframes * PAGE_SIZE, max_pinned_fraction)


def test_allocate_and_free_roundtrip():
    mem = make_mem(4)
    frames = [mem.allocate() for _ in range(4)]
    assert mem.free_frames == 0
    assert len({f.pfn for f in frames}) == 4
    with pytest.raises(OutOfMemory):
        mem.allocate()
    for f in frames:
        mem.free(f)
    assert mem.free_frames == 4


def test_double_free_rejected():
    mem = make_mem()
    f = mem.allocate()
    mem.free(f)
    with pytest.raises(ValueError):
        mem.free(f)


def test_freeing_pinned_frame_rejected():
    mem = make_mem()
    f = mem.allocate()
    mem.account_pin(f)
    with pytest.raises(ValueError):
        mem.free(f)
    mem.account_unpin(f)
    mem.free(f)


def test_fresh_frames_are_zero_filled():
    mem = make_mem()
    f = mem.allocate()
    f.write(100, b"hello")
    mem.account_pin(f)
    mem.account_unpin(f)
    mem.free(f)
    f2 = mem.allocate()
    assert f2.pfn == f.pfn  # LIFO free list reuses the frame
    assert f2.read(100, 5) == b"\x00" * 5


def test_frame_read_write_bounds():
    mem = make_mem()
    f = mem.allocate()
    f.write(PAGE_SIZE - 3, b"abc")
    assert f.read(PAGE_SIZE - 3, 3) == b"abc"
    with pytest.raises(ValueError):
        f.write(PAGE_SIZE - 2, b"abc")
    with pytest.raises(ValueError):
        f.read(-1, 2)
    with pytest.raises(ValueError):
        f.read(PAGE_SIZE, 1)


def test_frame_write_is_bounded_by_bytes_not_items():
    # Four float64 items are 32 bytes: a write that ends past the page by
    # bytes is refused, and one that fits leaves the frame one page long.
    mem = make_mem()
    f = mem.allocate()
    items = np.arange(4, dtype=np.float64)
    with pytest.raises(ValueError):
        f.write(PAGE_SIZE - 8, items)
    f.write(PAGE_SIZE - 32, items)
    assert len(f.data) == PAGE_SIZE
    assert f.read(PAGE_SIZE - 32, 32) == items.tobytes()


def test_read_untouched_frame_returns_zeros():
    mem = make_mem()
    f = mem.allocate()
    assert f.read(0, 16) == bytes(16)


def test_copy_contents_from():
    mem = make_mem()
    a, b = mem.allocate(), mem.allocate()
    a.write(0, b"data")
    b.copy_contents_from(a)
    assert b.read(0, 4) == b"data"
    # An untouched source leaves the destination zero-filled.
    c, d = mem.allocate(), mem.allocate()
    d.write(0, b"old!")
    d.copy_contents_from(c)
    assert d.read(0, 4) == bytes(4)


def test_pin_accounting_counts_frames_once():
    mem = make_mem()
    f = mem.allocate()
    mem.account_pin(f)
    mem.account_pin(f)  # nested pin of the same frame
    assert mem.pinned_frames == 1
    assert f.pin_count == 2
    mem.account_unpin(f)
    assert mem.pinned_frames == 1
    mem.account_unpin(f)
    assert mem.pinned_frames == 0


def test_unpin_unpinned_rejected():
    mem = make_mem()
    f = mem.allocate()
    with pytest.raises(ValueError):
        mem.account_unpin(f)


def test_pinned_page_limit_enforced():
    mem = make_mem(10, max_pinned_fraction=0.5)
    frames = [mem.allocate() for _ in range(6)]
    for f in frames[:5]:
        mem.account_pin(f)
    assert not mem.can_pin(1)
    with pytest.raises(OutOfMemory):
        mem.account_pin(frames[5])
    mem.account_unpin(frames[0])
    assert mem.can_pin(1)
    mem.account_pin(frames[5])


def test_pinning_free_frame_rejected():
    mem = make_mem()
    f = mem.allocate()
    mem.free(f)
    with pytest.raises(ValueError):
        mem.account_pin(f)


def test_constructor_validation():
    with pytest.raises(ValueError):
        PhysicalMemory(100)  # less than one frame
    with pytest.raises(ValueError):
        PhysicalMemory(PAGE_SIZE * 4, max_pinned_fraction=0.0)
    with pytest.raises(ValueError):
        PhysicalMemory(PAGE_SIZE * 4, max_pinned_fraction=1.5)


def test_construction_cost_does_not_grow_with_memory_size():
    # Building a host must not enumerate its frames: an 8 GiB memory has
    # 2M of them, and a list of their pfns alone would take ~80 MB.
    tracemalloc.start()
    try:
        mem = PhysicalMemory(8 * GIB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mem.free_frames == 8 * GIB // PAGE_SIZE
    assert peak < 1 << 20


def test_allocation_order_is_pfn_order_then_freed_lifo():
    mem = make_mem(8)
    frames = [mem.allocate() for _ in range(4)]
    assert [f.pfn for f in frames] == [0, 1, 2, 3]
    mem.free(frames[1])
    mem.free(frames[3])
    assert [mem.allocate().pfn for _ in range(4)] == [3, 1, 4, 5]
