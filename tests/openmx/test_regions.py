"""Tests for user regions: geometry, watermark coverage, frame I/O."""

import numpy as np
import pytest

from repro.hw import PAGE_SIZE, PhysicalMemory
from repro.kernel import AddressSpace, page_count
from repro.openmx.regions import RegionState, Segment, UserRegion, segments_pages


@pytest.fixture
def aspace():
    return AddressSpace(PhysicalMemory(1024 * PAGE_SIZE), "app")


def make_region(aspace, sizes, rid=1, offset_in_page=0):
    segs = []
    for size in sizes:
        va = aspace.mmap(size + offset_in_page)
        segs.append(Segment(va + offset_in_page, size))
    return UserRegion(rid, aspace, tuple(segs))


def pin_all(region):
    frames = [region.aspace.pin_page(va) for va in region.page_vas]
    region.attach_frames(0, frames)
    return frames


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(0x1000, 0)
    with pytest.raises(ValueError):
        UserRegion(1, None, ())


def test_page_geometry_single_segment(aspace):
    r = make_region(aspace, [3 * PAGE_SIZE])
    assert r.npages == 3
    assert r.total_length == 3 * PAGE_SIZE
    assert segments_pages(r.segments) == r.page_vas


def test_unaligned_segment_spans_extra_page(aspace):
    r = make_region(aspace, [PAGE_SIZE], offset_in_page=100)
    # 4096 bytes starting at offset 100 touches two pages.
    assert r.npages == 2


def test_vectorial_region_concatenates_segments(aspace):
    r = make_region(aspace, [PAGE_SIZE, 2 * PAGE_SIZE])
    assert r.npages == 3
    assert r.total_length == 3 * PAGE_SIZE
    pin_all(r)
    r.write(0, b"A" * 10)
    r.write(PAGE_SIZE - 5, b"B" * 10)  # crosses into segment 2's pages
    assert r.read(0, 10) == b"A" * 10
    assert r.read(PAGE_SIZE - 5, 10) == b"B" * 10


def test_covers_tracks_watermark(aspace):
    r = make_region(aspace, [4 * PAGE_SIZE])
    assert not r.covers(0, 1)
    frames = [aspace.pin_page(r.page_vas[0]), aspace.pin_page(r.page_vas[1])]
    r.attach_frames(0, frames)
    assert r.watermark == 2
    assert r.covers(0, 2 * PAGE_SIZE)
    assert not r.covers(0, 2 * PAGE_SIZE + 1)
    assert not r.covers(2 * PAGE_SIZE, 1)
    assert r.state is RegionState.PINNING or r.state is RegionState.UNPINNED


def test_attach_out_of_order_rejected(aspace):
    r = make_region(aspace, [2 * PAGE_SIZE])
    f = aspace.pin_page(r.page_vas[1])
    with pytest.raises(ValueError):
        r.attach_frames(1, [f])
    aspace.unpin_frame(f)


def test_fully_pinned_sets_state(aspace):
    r = make_region(aspace, [2 * PAGE_SIZE])
    pin_all(r)
    assert r.state is RegionState.PINNED
    assert r.fully_pinned


def test_read_write_through_frames_roundtrip(aspace):
    r = make_region(aspace, [3 * PAGE_SIZE], offset_in_page=64)
    pin_all(r)
    data = bytes(i % 251 for i in range(r.total_length))
    r.write(0, data)
    assert r.read(0, r.total_length) == data
    # And the application sees the same bytes through its page table,
    # because pinned frames ARE the mapped frames.
    assert aspace.read(r.segments[0].va, r.total_length) == data


def test_typed_buffer_is_written_as_its_bytes_through_both_paths(aspace):
    # A float64 array has fewer items than bytes.  Written across a page
    # boundary through the page table and through a pinned region, it must
    # land as its bytes, and no frame may grow past one page.
    items = np.arange(1, 17, dtype=np.float64)  # 128 bytes
    va = aspace.mmap(2 * PAGE_SIZE)
    aspace.write(va + PAGE_SIZE - 40, items)
    assert aspace.read(va + PAGE_SIZE - 40, items.nbytes) == items.tobytes()
    r = make_region(aspace, [2 * PAGE_SIZE])
    frames = pin_all(r)
    r.write(PAGE_SIZE - 72, items[::-1].copy())
    assert r.read(PAGE_SIZE - 72, items.nbytes) == items[::-1].tobytes()
    for frame in [aspace.page(va), aspace.page(va + PAGE_SIZE), *frames]:
        assert len(frame.data) == PAGE_SIZE


def test_access_beyond_watermark_raises(aspace):
    r = make_region(aspace, [2 * PAGE_SIZE])
    r.attach_frames(0, [aspace.pin_page(r.page_vas[0])])
    r.write(0, b"ok")
    with pytest.raises(RuntimeError, match="watermark"):
        r.read(PAGE_SIZE, 1)
    with pytest.raises(RuntimeError, match="watermark"):
        r.write(PAGE_SIZE + 5, b"x")


def test_offset_bounds_checked(aspace):
    r = make_region(aspace, [PAGE_SIZE])
    pin_all(r)
    with pytest.raises(ValueError):
        r.read(-1, 1)
    with pytest.raises(ValueError):
        r.pages_needed(0, 0)
    with pytest.raises(ValueError):
        r.read(PAGE_SIZE, 1)


def test_take_pinned_frames_resets(aspace):
    r = make_region(aspace, [2 * PAGE_SIZE])
    frames = pin_all(r)
    epoch = r.pin_epoch
    taken = r.take_pinned_frames()
    assert taken == frames
    assert r.watermark == 0
    assert r.state is RegionState.UNPINNED
    assert r.pin_epoch == epoch + 1
    for f in taken:
        aspace.unpin_frame(f)


def test_pages_needed_with_unaligned_start(aspace):
    r = make_region(aspace, [2 * PAGE_SIZE], offset_in_page=PAGE_SIZE // 2)
    # Bytes [0, PAGE/2) live on page 0 only.
    assert r.pages_needed(0, PAGE_SIZE // 2) == 1
    assert r.pages_needed(0, PAGE_SIZE // 2 + 1) == 2
    assert r.pages_needed(r.total_length - 1, 1) == r.npages


def test_segment_ranges_are_half_open(aspace):
    va = aspace.mmap(4 * PAGE_SIZE)
    region = UserRegion(1, aspace, (
        Segment(va, 100), Segment(va + PAGE_SIZE, 2 * PAGE_SIZE)))
    assert region.segment_ranges() == [
        (va, va + 100),
        (va + PAGE_SIZE, va + 3 * PAGE_SIZE),
    ]


def test_locate_bisect_matches_linear_scan(aspace):
    # The prefix-array _locate must agree with a brute-force segment walk
    # at every byte offset of a gnarly vectorial region (unaligned starts,
    # segments out of address order, shared pages).
    va = aspace.mmap(8 * PAGE_SIZE)
    segments = (
        Segment(va + 100, 300),
        Segment(va + 3 * PAGE_SIZE - 17, PAGE_SIZE + 40),
        Segment(va + PAGE_SIZE, 64),
        Segment(va + 6 * PAGE_SIZE, 2 * PAGE_SIZE),
    )
    region = UserRegion(1, aspace, segments)

    def linear(offset):
        seg_off = 0
        page_idx = 0
        for i, seg in enumerate(segments):
            if seg_off <= offset < seg_off + seg.length:
                delta = offset - seg_off
                page = page_idx + ((seg.va + delta) // PAGE_SIZE
                                   - seg.va // PAGE_SIZE)
                return i, delta, page
            seg_off += seg.length
            page_idx += page_count(seg.va, seg.length)
        raise AssertionError

    for offset in range(region.total_length):
        assert region._locate(offset) == linear(offset)
    with pytest.raises(ValueError):
        region._locate(region.total_length)
    with pytest.raises(ValueError):
        region._locate(-1)


def _covers_spec(region, offset, length):
    """``covers`` by its definition: the bool, or the ValueError message."""
    try:
        return region.pages_needed(offset, length) <= region.watermark
    except ValueError as exc:
        return str(exc)


def _covers(region, offset, length):
    try:
        return region.covers(offset, length)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("pinned", ["none", "partial", "full"])
def test_covers_equals_pages_needed_on_every_range(aspace, pinned):
    # Unaligned and vectorial, so ranges cross pages and segments.
    r = make_region(aspace, [PAGE_SIZE + 300, 2 * PAGE_SIZE], offset_in_page=100)
    npin = {"none": 0, "partial": 2, "full": r.npages}[pinned]
    if npin:
        r.attach_frames(0, [aspace.pin_page(va) for va in r.page_vas[:npin]])
    total = r.total_length
    points = sorted({-PAGE_SIZE, -1, 0, 1, PAGE_SIZE - 101, PAGE_SIZE,
                     PAGE_SIZE + 299, PAGE_SIZE + 300, 2 * PAGE_SIZE,
                     total - 1, total, total + 1})
    lengths = [-1, 0, 1, 100, PAGE_SIZE, total, total + 1]
    checked = {True: 0, False: 0, "error": 0}
    for offset in points:
        for length in lengths:
            want = _covers_spec(r, offset, length)
            assert _covers(r, offset, length) == want, (offset, length)
            checked[want if isinstance(want, bool) else "error"] += 1
    assert checked["error"] > 0
    if pinned == "full":
        assert checked[True] > 0 and checked[False] == 0
    else:
        assert checked[False] > 0
