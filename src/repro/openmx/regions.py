"""User regions: the driver-side objects the paper's pinning model manages.

A *user region* (Section 2.2) is a possibly-vectorial set of user memory
segments declared to the driver and identified by a small integer.  The key
design point the paper introduces is that a **declared** region need not be
**pinned**: the region carries a pin state machine

    UNPINNED --(comm request)--> PINNING --(all pages)--> PINNED
       ^                                                     |
       +--------(MMU notifier invalidation / unpin) ---------+

and data accessors that work on the *pinned prefix* (watermark) so that
overlapped pinning can serve packets for the already-pinned head of a region
while the tail is still being pinned (Section 3.3).

All reads/writes go through the pinned physical frames — never through the
page table — exactly like the real driver's kernel-remap + memcpy path, so a
stale pin (the bug notifier-less caches have) corrupts data detectably.

The copy path copies each byte once, as the driver's single memcpy per
fragment does.  A read or write walks the pages it touches in one loop
(``_copy``): a read joins memoryview slices of the frames' bytes into one
``bytes`` (a frame never written contributes a slice of the shared
:data:`~repro.hw.memory.ZERO_PAGE` and stays unallocated); a write takes
one byte view of its payload and assigns each page's piece straight into
that frame's ``bytearray``.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

from repro.hw.memory import PAGE_SIZE, ZERO_PAGE, Frame
from repro.kernel.address_space import AddressSpace, page_count

__all__ = ["RegionState", "Segment", "UserRegion", "segments_pages"]


class RegionState(enum.Enum):
    UNPINNED = "unpinned"
    PINNING = "pinning"
    PINNED = "pinned"
    FAILED = "failed"


@dataclass(frozen=True)
class Segment:
    """One contiguous piece of a (possibly vectorial) region."""

    va: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"segment length must be positive, got {self.length}")


def segments_pages(segments: tuple[Segment, ...]) -> list[int]:
    """Page-aligned VAs of every page covering the segments, in region order."""
    vas: list[int] = []
    for seg in segments:
        first = (seg.va // PAGE_SIZE) * PAGE_SIZE
        n = page_count(seg.va, seg.length)
        vas.extend(range(first, first + n * PAGE_SIZE, PAGE_SIZE))
    return vas


class UserRegion:
    """A declared region and its pin state."""

    def __init__(self, region_id: int, aspace: AddressSpace,
                 segments: tuple[Segment, ...], owner: int | None = None):
        if not segments:
            raise ValueError("a region needs at least one segment")
        self.id = region_id
        self.aspace = aspace
        # Admission-queue identity: which endpoint declared the region (the
        # per-owner budget-share cap keys on this).  None for bare regions.
        self.owner = owner
        self.segments = tuple(segments)
        self.total_length = sum(s.length for s in segments)
        self.page_vas = segments_pages(self.segments)
        self.npages = len(self.page_vas)
        self.frames: list[Frame | None] = [None] * self.npages
        self.watermark = 0  # pages pinned from the start of the region
        self.state = RegionState.UNPINNED
        self.destroyed = False
        self.pin_cancelled = False  # set by the MMU notifier mid-pin
        # Set when the fair-admission queue timed out waiting for pin budget:
        # the driver skips its retry ladder and degrades straight to the
        # copy-through fallback.  Cleared on the next pin attempt.
        self.pin_denied = False
        # Pages of the fair-admission budget consumed on behalf of this
        # region (queue mode only); handed back to the owner's share-cap
        # footprint via PinService.owner_release when the frames drop.
        self.budget_pages = 0
        self.active_comms = 0
        self.invalidate_pending = False
        self.pin_epoch = 0
        # Copy-through fallback (persistent pin failure): a kernel-side
        # snapshot of the region's bytes held in the statically-pinned eager
        # buffers; served in place of pinned frames and cleared when the
        # last communication on the region completes.
        self.bounce: bytes | None = None
        # Prefix arrays over the segment list: cumulative byte offsets and
        # cumulative page indexes, so offset->segment resolution is one
        # bisect instead of a scan (a region may be highly vectorial).
        self._seg_offsets: list[int] = []
        self._seg_first_page: list[int] = []
        off = 0
        page_idx = 0
        for seg in self.segments:
            self._seg_offsets.append(off)
            self._seg_first_page.append(page_idx)
            off += seg.length
            page_idx += page_count(seg.va, seg.length)

    # -- offset geometry -----------------------------------------------------
    def _locate(self, offset: int) -> tuple[int, int, int]:
        """(segment index, byte offset within segment, global page index)."""
        if not 0 <= offset < self.total_length:
            raise ValueError(f"offset {offset} outside region of {self.total_length}")
        i = bisect_right(self._seg_offsets, offset) - 1
        seg = self.segments[i]
        delta = offset - self._seg_offsets[i]
        va = seg.va + delta
        page = self._seg_first_page[i] + (va // PAGE_SIZE - seg.va // PAGE_SIZE)
        return i, delta, page

    def segment_ranges(self) -> list[tuple[int, int]]:
        """Half-open [va, va+length) byte ranges, for interval indexing."""
        return [(seg.va, seg.va + seg.length) for seg in self.segments]

    def pages_needed(self, offset: int, length: int) -> int:
        """Highest page index touched by [offset, offset+length), plus one."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        _, _, last_page = self._locate(offset + length - 1)
        return last_page + 1

    def covers(self, offset: int, length: int) -> bool:
        """Are all pages backing [offset, offset+length) pinned?

        This is the per-packet "additional test on the region descriptor"
        that overlapped pinning adds to the receive path.  A fully pinned
        region answers without locating the last page, for every range
        :meth:`pages_needed` accepts; the rest go through it (and raise
        what it raises).
        """
        if (self.watermark == self.npages and length > 0
                and 0 < offset + length <= self.total_length):
            return True
        return self.pages_needed(offset, length) <= self.watermark

    # -- pin state transitions -------------------------------------------------
    def attach_frames(self, start_page: int, frames: list[Frame]) -> None:
        """Record newly pinned frames and advance the watermark."""
        if start_page != self.watermark:
            raise ValueError(
                f"frames attached at page {start_page}, watermark {self.watermark}"
            )
        for i, frame in enumerate(frames):
            self.frames[start_page + i] = frame
        self.watermark = start_page + len(frames)
        if self.watermark == self.npages:
            self.state = RegionState.PINNED

    def take_pinned_frames(self) -> list[Frame]:
        """Remove and return all pinned frames (for unpinning); resets state."""
        frames = [f for f in self.frames if f is not None]
        self.frames = [None] * self.npages
        self.watermark = 0
        self.state = RegionState.UNPINNED
        self.pin_epoch += 1
        return frames

    def mark_failed(self) -> None:
        """A pin attempt hit an invalid address: frames were rolled back."""
        self.frames = [None] * self.npages
        self.watermark = 0
        self.state = RegionState.FAILED
        self.pin_epoch += 1

    @property
    def fully_pinned(self) -> bool:
        return self.watermark == self.npages

    # -- data access through pinned frames ------------------------------------
    def _copy(self, offset: int, length: int,
              src: memoryview | None) -> list[bytes | memoryview]:
        """Walk the pinned frames [offset, +length) touches, in one loop.

        With ``src`` None this is a read: it returns the pieces to join, a
        memoryview slice of each page's bytes (of :data:`ZERO_PAGE` for a
        frame never written, which stays unallocated).  Otherwise it writes
        ``src`` into the pages, allocating a page's bytes on first touch,
        and returns nothing to join.  One bisect finds the first page;
        every later piece is on the next page, so an 8 KiB chunk costs one
        locate, not one per page.  A write that reaches a page beyond the
        watermark has already written the pages before it.
        """
        pieces: list[bytes | memoryview] = []
        if length <= 0:
            return pieces
        i, delta, page = self._locate(offset)
        segments = self.segments
        frames = self.frames
        seg = segments[i]
        va = seg.va + delta
        seg_end = seg.va + seg.length
        done = 0
        while True:
            frame = frames[page]
            if frame is None:
                raise RuntimeError(
                    f"region {self.id}: access at offset {offset + done} "
                    f"beyond pinned watermark (page {page}, watermark "
                    f"{self.watermark})"
                )
            in_page = va % PAGE_SIZE
            # min() of the three, without a builtin call per page.
            chunk = PAGE_SIZE - in_page
            if chunk > seg_end - va:
                chunk = seg_end - va
            if chunk > length - done:
                chunk = length - done
            buf = frame._data
            if src is None:
                if buf is None:
                    buf = ZERO_PAGE
                pieces.append(buf if chunk == PAGE_SIZE
                              else memoryview(buf)[in_page:in_page + chunk])
            else:
                if buf is None:
                    buf = frame._data = bytearray(PAGE_SIZE)
                buf[in_page:in_page + chunk] = src[done:done + chunk]
            done += chunk
            if done == length:
                return pieces
            # The next piece starts a page: the next one of this segment,
            # or the first of the next segment, which segments_pages lists
            # right after this segment's last.
            page += 1
            va += chunk
            if va == seg_end:
                i += 1
                if i == len(segments):
                    raise ValueError(f"offset {offset + done} outside "
                                     f"region of {self.total_length}")
                seg = segments[i]
                va = seg.va
                seg_end = va + seg.length

    def read(self, offset: int, length: int) -> bytes:
        """Read bytes out of the pinned frames (send-side DMA)."""
        return b"".join(self._copy(offset, length, None))

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Write bytes into the pinned frames (receive-side copy)."""
        src = memoryview(data).cast("B")
        self._copy(offset, len(src), src)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<UserRegion {self.id} {self.state.value} "
            f"{self.watermark}/{self.npages}p len={self.total_length}>"
        )
