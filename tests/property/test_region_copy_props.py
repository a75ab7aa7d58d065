"""Property-based tests: region copies equal a page-by-page walk.

``UserRegion.read`` and ``write`` locate the first byte once and then walk
pages and segments from there.  That must be a pure speed-up: on random
vectorial regions (unaligned segment starts, segments sharing pages,
accesses crossing page and segment boundaries, partly pinned), they must
move exactly the bytes the spec below moves, and fail the same way: the
same ``RuntimeError`` text for an access past the pinned watermark (after
writing the same pinned pages before it), and the same ``ValueError`` text
for an access past the region's end.

The spec is the plain form: every page's segment is found again with a
linear scan from the first segment.
"""

from hypothesis import given, settings, strategies as st

from repro.hw.memory import PAGE_SIZE, Frame
from repro.kernel import page_count
from repro.openmx.regions import Segment, UserRegion


def _spec_pieces(region, offset, length):
    """(frame, in-page offset, bytes) per page, each located from scratch."""
    pos = offset
    while length > 0:
        seg_off = 0
        page_idx = 0
        for seg in region.segments:
            if seg_off <= pos < seg_off + seg.length:
                break
            seg_off += seg.length
            page_idx += page_count(seg.va, seg.length)
        else:
            raise ValueError(
                f"offset {pos} outside region of {region.total_length}")
        delta = pos - seg_off
        va = seg.va + delta
        page = page_idx + (va // PAGE_SIZE - seg.va // PAGE_SIZE)
        frame = region.frames[page]
        if frame is None:
            raise RuntimeError(
                f"region {region.id}: access at offset {pos} beyond pinned "
                f"watermark (page {page}, watermark {region.watermark})")
        in_page = va % PAGE_SIZE
        chunk = min(PAGE_SIZE - in_page, seg.length - delta, length)
        yield frame, in_page, chunk
        pos += chunk
        length -= chunk


def _spec_read(region, offset, length):
    return b"".join(frame.read(in_page, chunk)
                    for frame, in_page, chunk
                    in _spec_pieces(region, offset, length))


def _spec_write(region, offset, data):
    done = 0
    for frame, in_page, chunk in _spec_pieces(region, offset, len(data)):
        frame.write(in_page, data[done:done + chunk])
        done += chunk


# A segment: (page number, offset in its first page, length in bytes).
_SEGMENTS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, PAGE_SIZE - 1),
              st.one_of(st.integers(1, 64),
                        st.integers(PAGE_SIZE - 64, 2 * PAGE_SIZE + 64))),
    min_size=1, max_size=5)


def _build(segments, pinned_fraction):
    """Two identical regions (own frames each), pinned to the same prefix."""
    segs = tuple(Segment(page * PAGE_SIZE + off, length)
                 for page, off, length in segments)
    pair = []
    for _ in range(2):
        region = UserRegion(7, None, segs)
        pinned = round(region.npages * pinned_fraction)
        frames = []
        for pfn in range(pinned):
            frame = Frame(pfn)
            if pfn % 3:  # some frames keep their lazy all-zero contents
                frame.data[:] = bytes((pfn * 31 + i) % 251
                                      for i in range(PAGE_SIZE))
            frames.append(frame)
        region.attach_frames(0, frames)
        pair.append(region)
    return pair


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _contents(region):
    return [None if f is None else bytes(f.data) for f in region.frames]


_ACCESS = st.tuples(st.floats(0, 1.05), st.integers(0, 3 * PAGE_SIZE))


@settings(max_examples=150, deadline=None)
@given(segments=_SEGMENTS, pinned=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       access=_ACCESS)
def test_read_equals_page_by_page_spec(segments, pinned, access):
    region, _ = _build(segments, pinned)
    where, length = access
    offset = int(region.total_length * where)
    assert (_outcome(region.read, offset, length)
            == _outcome(_spec_read, region, offset, length))


@settings(max_examples=150, deadline=None)
@given(segments=_SEGMENTS, pinned=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       access=_ACCESS)
def test_write_equals_page_by_page_spec(segments, pinned, access):
    region, twin = _build(segments, pinned)
    where, length = access
    offset = int(region.total_length * where)
    data = bytes((7 * i + 3) % 256 for i in range(length))
    assert (_outcome(region.write, offset, data)
            == _outcome(_spec_write, twin, offset, data))
    assert _contents(region) == _contents(twin)
