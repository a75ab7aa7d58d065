"""Process address spaces: VMAs, page tables, faults, COW, swap, migration.

This is the virtual-memory substrate the paper's pinning machinery sits on.
The model is page-granular and keeps real bytes in the physical frames so
that correctness bugs (stale translations after free/COW/migration) corrupt
data visibly instead of passing silently.

Semantics mirror Linux where it matters to the paper:

* pages are faulted in lazily on first access (or by ``get_user_pages``),
* ``munmap`` fires MMU notifiers *before* tearing mappings down; frames that
  are still pinned at teardown survive as *orphans* (the pinner holds a
  reference, like ``get_user_pages`` does) and only return to the free pool
  at final unpin — this is exactly the mechanism that makes notifier-less
  user-space registration caches unsafe,
* copy-on-write duplication, swap-out and migration also fire notifiers and
  refuse to touch pinned frames (pinning exists to prevent precisely that).

Lookups are indexed, the way the real VM keeps them (maple tree / rbtree):
VMAs live in a sorted-start list so ``find_vma`` is one ``bisect`` instead
of a walk of every mapping, and resident / swapped page numbers are kept in
sorted lists so ``resident_pages`` is two bisects and range teardown visits
only the pages that actually exist, not every possible vpn in the range.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from repro.hw.memory import (PAGE_SIZE, ZERO_PAGE, Frame, OutOfMemory,
                              PhysicalMemory)
from repro.kernel.mmu_notifier import MMUNotifierChain

__all__ = ["AddressSpace", "BadAddress", "Vma", "PAGE_SIZE", "page_count", "page_align"]


class BadAddress(Exception):
    """Access or operation on an unmapped virtual address."""


def page_align(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def page_count(addr: int, length: int) -> int:
    """Number of pages spanned by [addr, addr+length)."""
    if length <= 0:
        return 0
    first = addr // PAGE_SIZE
    last = (addr + length - 1) // PAGE_SIZE
    return last - first + 1


@dataclass
class Vma:
    """One virtual memory area: [start, end), page aligned.

    ``gen`` is a per-address-space creation stamp: a munmap + mmap that
    lands on the same virtual range produces a VMA with a different
    generation, which is how user-space caches can detect "same address,
    new backing" without any kernel upcall (see
    ``AddressSpace.range_generation``).
    """

    start: int
    end: int
    gen: int = 0

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end

    @property
    def length(self) -> int:
        return self.end - self.start


class AddressSpace:
    """One process's virtual address space."""

    # Userspace mmap area starts well away from zero so that address
    # arithmetic bugs fault instead of aliasing page 0.
    MMAP_BASE = 0x7000_0000_0000

    def __init__(self, memory: PhysicalMemory, name: str = "proc"):
        self.memory = memory
        self.name = name
        self._vmas: dict[int, Vma] = {}  # start -> Vma (page aligned)
        self._vma_starts: list[int] = []  # sorted VMA starts (maple-tree role)
        self._pages: dict[int, Frame] = {}  # vpn -> Frame
        self._resident: list[int] = []  # sorted resident vpns
        self._swap: dict[int, bytes] = {}  # vpn -> swapped-out contents
        self._swap_vpns: list[int] = []  # sorted swapped vpns
        self._next_mmap = self.MMAP_BASE
        # Freed ranges by size, reused LIFO — like Linux, a munmap followed
        # by an equal-sized mmap usually returns the same address, which is
        # what makes free+malloc hit pinning caches (Figure 3).
        self._free_ranges: dict[int, list[int]] = {}
        self.notifiers = MMUNotifierChain()
        self._orphans: set[Frame] = set()
        # Monotonic VMA-creation stamp (see Vma.gen / range_generation).
        self._map_gen = 0
        # Statistics.
        self.faults = 0
        self.cow_breaks = 0
        self.swapins = 0
        self.forks = 0

    # -- VMA management ------------------------------------------------------
    def mmap(self, length: int) -> int:
        """Create an anonymous mapping; returns its start address."""
        if length <= 0:
            raise ValueError(f"mmap length must be positive, got {length}")
        size = page_count(0, length) * PAGE_SIZE
        reusable = self._free_ranges.get(size)
        if reusable:
            start = reusable.pop()
        else:
            start = self._next_mmap
            self._next_mmap += size + PAGE_SIZE  # one-page guard gap
        self._map_gen += 1
        self._vmas[start] = Vma(start, start + size, gen=self._map_gen)
        insort(self._vma_starts, start)
        return start

    def mmap_fixed(self, start: int, length: int) -> int:
        """Map at a caller-chosen (page-aligned, free) address."""
        if start % PAGE_SIZE:
            raise ValueError(f"unaligned fixed mapping at {start:#x}")
        size = page_count(0, length) * PAGE_SIZE
        end = start + size
        starts = self._vma_starts
        if size:
            # Only two candidates can overlap [start, end): the VMA at or
            # before ``start`` and the first VMA after it.
            i = bisect_right(starts, start) - 1
            if i >= 0 and self._vmas[starts[i]].end > start:
                raise BadAddress(
                    f"fixed mapping overlaps existing VMA at {start:#x}"
                )
            if i + 1 < len(starts) and starts[i + 1] < end:
                raise BadAddress(
                    f"fixed mapping overlaps existing VMA at {starts[i + 1]:#x}"
                )
        # A fixed mapping may land on a freed range: drop stale reuse entries
        # and prune sizes that end up with none left (long churn runs would
        # otherwise grow the dict without bound).
        for rsize in list(self._free_ranges):
            kept = [
                s for s in self._free_ranges[rsize]
                if s + rsize <= start or s >= end
            ]
            if kept:
                self._free_ranges[rsize] = kept
            else:
                del self._free_ranges[rsize]
        if start not in self._vmas:
            insort(starts, start)
        self._map_gen += 1
        self._vmas[start] = Vma(start, end, gen=self._map_gen)
        return start

    def find_vma(self, addr: int) -> Vma | None:
        starts = self._vma_starts
        i = bisect_right(starts, addr) - 1
        if i >= 0:
            vma = self._vmas[starts[i]]
            if addr < vma.end:
                return vma
        return None

    def is_mapped_range(self, addr: int, length: int) -> bool:
        """True if every page of [addr, addr+length) lies in some VMA."""
        if length <= 0:
            return False
        va = page_align(addr)
        end = addr + length
        starts = self._vma_starts
        i = bisect_right(starts, va) - 1
        if i < 0:
            return False
        # Walk adjacent VMAs forward from the bisect point.
        while va < end:
            if i >= len(starts):
                return False
            vma = self._vmas[starts[i]]
            if not (vma.start <= va < vma.end):
                return False
            va = vma.end
            i += 1
        return True

    def range_generation(self, addr: int, length: int) -> tuple[int, ...]:
        """Creation stamps of the VMAs backing [addr, addr+length).

        A free + same-address remap changes the tuple even though the range
        looks identical, so a user-space registration cache can detect "same
        virtual range, different backing" (stale-translation bait) with one
        comparison.  Unmapped (sub)ranges yield a ``-1`` entry — always a
        mismatch against any live mapping.
        """
        if length <= 0:
            return (-1,)
        gens: list[int] = []
        va = page_align(addr)
        end = addr + length
        starts = self._vma_starts
        i = bisect_right(starts, va) - 1
        while va < end:
            vma = self._vmas[starts[i]] if 0 <= i < len(starts) else None
            if vma is None or not (vma.start <= va < vma.end):
                gens.append(-1)
                return tuple(gens)
            gens.append(vma.gen)
            va = vma.end
            i += 1
        return tuple(gens)

    def munmap(self, addr: int, length: int) -> None:
        """Remove mappings in [addr, addr+length); fires MMU notifiers first.

        Only whole-VMA unmapping is supported (which is what user-space
        allocators do); partial unmaps raise.
        """
        start = page_align(addr)
        end = start + page_count(addr, length) * PAGE_SIZE
        starts = self._vma_starts
        lo = bisect_left(starts, start)
        victims: list[Vma] = []
        i = lo
        while i < len(starts) and starts[i] < end:
            vma = self._vmas[starts[i]]
            if vma.end > end:
                break  # starts inside the range but extends past it
            victims.append(vma)
            i += 1
        covered = sum(v.length for v in victims)
        if not victims or covered < (end - start):
            inside = self.find_vma(addr)
            if inside is not None and (inside.start < start or inside.end > end):
                raise BadAddress("partial VMA unmap not supported")
            if not victims:
                raise BadAddress(f"munmap of unmapped range {addr:#x}+{length}")
        # Linux: notifiers run before the page table is torn down.
        self.notifiers.invalidate_range(start, end)
        for vma in victims:
            del self._vmas[vma.start]
            self._drop_pages(vma.start // PAGE_SIZE, vma.end // PAGE_SIZE)
            self._free_ranges.setdefault(vma.length, []).append(vma.start)
        del starts[lo : lo + len(victims)]

    def _drop_pages(self, first_vpn: int, end_vpn: int) -> None:
        """Tear down page-table and swap entries for [first_vpn, end_vpn)."""
        res = self._resident
        lo = bisect_left(res, first_vpn)
        hi = bisect_left(res, end_vpn)
        for vpn in res[lo:hi]:
            self._release_frame(self._pages.pop(vpn))
        del res[lo:hi]
        swp = self._swap_vpns
        lo = bisect_left(swp, first_vpn)
        hi = bisect_left(swp, end_vpn)
        for vpn in swp[lo:hi]:
            del self._swap[vpn]
        del swp[lo:hi]

    def destroy(self) -> None:
        """Tear the whole address space down (process exit)."""
        self.notifiers.release()
        for vma in list(self._vmas.values()):
            self.munmap(vma.start, vma.length)

    def _release_frame(self, frame: Frame) -> None:
        if frame.pinned:
            # A pinner still references the frame: it becomes an orphan and
            # is freed when the last pin drops (see unpin_frame).
            self._orphans.add(frame)
        else:
            self.memory.free(frame)

    # -- page table ---------------------------------------------------------
    def page(self, addr: int) -> Frame | None:
        """Current frame backing ``addr`` (None if not present)."""
        return self._pages.get(addr // PAGE_SIZE)

    def resident_pages(self, addr: int, length: int) -> int:
        n = page_count(addr, length)
        if n == 0:
            return 0
        first = addr // PAGE_SIZE
        res = self._resident
        return bisect_left(res, first + n) - bisect_left(res, first)

    def fault_in(self, addr: int) -> Frame:
        """Ensure the page containing ``addr`` is resident; return its frame."""
        vpn = addr // PAGE_SIZE
        frame = self._pages.get(vpn)
        if frame is not None:
            return frame
        if self.find_vma(addr) is None:
            raise BadAddress(f"fault on unmapped address {addr:#x} in {self.name}")
        frame = self.memory.allocate()
        swapped = self._swap.pop(vpn, None)
        if swapped is not None:
            frame.write(0, swapped)
            self.swapins += 1
            del self._swap_vpns[bisect_left(self._swap_vpns, vpn)]
        self._pages[vpn] = frame
        insort(self._resident, vpn)
        self.faults += 1
        return frame

    def _break_cow(self, vpn: int, notify: bool) -> Frame:
        """Replace a COW-shared page with a private copy (write fault).

        Linux ``wp_page_copy`` fires the MMU notifiers before installing the
        new page table entry; ``notify=False`` is the ``get_user_pages`` /
        FOLL_WRITE break, which needs no notification in this model because
        a shared frame is by construction unpinned, so no driver translation
        can reference it (frames enter a region's table only when pinned).
        """
        old = self._pages[vpn]
        if notify:
            self.notifiers.invalidate_range(vpn * PAGE_SIZE,
                                            (vpn + 1) * PAGE_SIZE)
        new = self.memory.allocate()
        new.copy_contents_from(old)
        self._pages[vpn] = new
        self.memory.free(old)  # drops this aspace's mapping reference
        self.cow_breaks += 1
        return new

    # -- data access (application-level; timing charged by callers) ---------
    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Copy ``data`` into [addr, +nbytes), faulting pages in and breaking
        COW shares page by page; a page's bytes are allocated on first
        touch.  A write that faults on an unmapped page has already written
        the pages before it."""
        src = memoryview(data).cast("B")
        length = len(src)
        offset = 0
        pages = self._pages
        while offset < length:
            va = addr + offset
            vpn = va // PAGE_SIZE
            frame = pages.get(vpn)
            if frame is None:
                frame = self.fault_in(va)  # absent page: take the fault
            elif frame.map_count > 1:
                frame = self._break_cow(vpn, notify=True)  # COW write fault
            in_page = va % PAGE_SIZE
            chunk = PAGE_SIZE - in_page
            if chunk > length - offset:
                chunk = length - offset
            buf = frame._data
            if buf is None:
                buf = frame._data = bytearray(PAGE_SIZE)
            buf[in_page:in_page + chunk] = src[offset:offset + chunk]
            offset += chunk

    def read(self, addr: int, length: int) -> bytes:
        """The bytes of [addr, +length), faulting absent pages in.  A page
        never written reads as zeros and stays unallocated."""
        pieces: list[bytes | memoryview] = []
        offset = 0
        pages = self._pages
        while offset < length:
            va = addr + offset
            frame = pages.get(va // PAGE_SIZE)
            if frame is None:
                frame = self.fault_in(va)  # absent page: take the fault
            in_page = va % PAGE_SIZE
            chunk = PAGE_SIZE - in_page
            if chunk > length - offset:
                chunk = length - offset
            buf = frame._data
            if buf is None:
                buf = ZERO_PAGE
            pieces.append(buf if chunk == PAGE_SIZE
                          else memoryview(buf)[in_page:in_page + chunk])
            offset += chunk
        return b"".join(pieces)

    # -- pinning hooks (used by repro.kernel.pinning) ------------------------
    def pin_page(self, addr: int) -> Frame:
        frame = self.fault_in(addr)
        if frame.map_count > 1:
            # get_user_pages with FOLL_WRITE breaks COW before pinning: a
            # DMA target must be private to this address space, or the DMA
            # would scribble on the other process's copy.
            frame = self._break_cow(addr // PAGE_SIZE, notify=False)
        self.memory.account_pin(frame)
        return frame

    def unpin_frame(self, frame: Frame) -> None:
        self.memory.account_unpin(frame)
        if not frame.pinned and frame in self._orphans:
            self._orphans.discard(frame)
            self.memory.free(frame)

    @property
    def orphan_count(self) -> int:
        return len(self._orphans)

    # -- VM events that invalidate translations ------------------------------
    def cow_duplicate(self, addr: int, length: int) -> int:
        """Copy-on-write break: replace resident, *unpinned* pages with fresh
        frames holding the same bytes.  Fires notifiers for the whole range.
        Returns the number of pages actually duplicated.
        """
        start = page_align(addr)
        end = addr + length
        if not self.is_mapped_range(addr, length):
            raise BadAddress(f"COW on unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, page_align(end - 1) + PAGE_SIZE)
        duplicated = 0
        res = self._resident
        lo = bisect_left(res, start // PAGE_SIZE)
        hi = bisect_left(res, (end - 1) // PAGE_SIZE + 1)
        for vpn in res[lo:hi]:
            old = self._pages[vpn]
            if old.pinned:
                continue  # pinned pages cannot be COW-broken away
            new = self.memory.allocate()
            new.copy_contents_from(old)
            self._pages[vpn] = new
            self.memory.free(old)
            self.cow_breaks += 1
            duplicated += 1
        return duplicated

    def migrate(self, addr: int, length: int) -> int:
        """Migrate resident, unpinned pages to new frames (NUMA balancing,
        compaction).  Fires notifiers; returns pages moved."""
        # Same mechanics as a COW break from the pinner's point of view.
        return self.cow_duplicate(addr, length)

    def swap_out(self, addr: int, length: int) -> int:
        """Write unpinned resident pages to swap and unmap them."""
        start = page_align(addr)
        end = addr + length
        if not self.is_mapped_range(addr, length):
            raise BadAddress(f"swap-out of unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, page_align(end - 1) + PAGE_SIZE)
        moved = 0
        res = self._resident
        lo = bisect_left(res, start // PAGE_SIZE)
        hi = bisect_left(res, (end - 1) // PAGE_SIZE + 1)
        kept: list[int] = []
        for vpn in res[lo:hi]:
            frame = self._pages[vpn]
            if frame.pinned or frame.map_count > 1:
                # Pinned pages cannot be swapped; COW-shared pages stay too
                # (no swap cache in this model — the sibling address space
                # still maps the frame directly).
                kept.append(vpn)
                continue
            self._swap[vpn] = frame.read(0, PAGE_SIZE)
            insort(self._swap_vpns, vpn)
            del self._pages[vpn]
            self.memory.free(frame)
            moved += 1
        res[lo:hi] = kept
        return moved

    # -- fork -----------------------------------------------------------------
    def fork(self, name: str) -> "AddressSpace":
        """Duplicate this address space the way ``copy_page_range`` does.

        Semantics that matter to the pinning machinery:

        * the parent's MMU notifiers fire an invalidation over every mapped
          range *before* the copy — Linux forks conservatively when
          notifiers are registered, because write-protecting the parent's
          PTEs for COW changes translations under any pinning cache.  Idle
          pinned regions are unpinned instantly; regions with active
          communications keep their frames (deferred invalidation), which is
          why those pages must be copied eagerly below;
        * pages that are still pinned after the invalidation (active DMA)
          are **eagerly copied** into the child — a COW-shared page can
          never be pinned (copy-on-pin, the MADV_DONTFORK/pre-5.12 COW-vs-GUP
          lesson), so parent DMA keeps landing in parent-visible frames;
        * every other resident page is shared copy-on-write
          (``Frame.map_count``); the first write on either side breaks the
          share via :meth:`_break_cow`;
        * the child starts with a **fresh, empty** notifier chain: notifier
          registrations are mm-scoped and are not inherited across fork.

        Raises :class:`OutOfMemory` (before touching any state) if the eager
        copies cannot be satisfied.
        """
        # Pre-flight: eager copies needed = resident pinned pages.  Checking
        # first keeps fork atomic — no half-built child on OOM.
        pinned_vpns = [vpn for vpn in self._resident if self._pages[vpn].pinned]
        if len(pinned_vpns) > self.memory.free_frames:
            raise OutOfMemory(
                f"fork of {self.name}: {len(pinned_vpns)} eager page copies "
                f"need more than {self.memory.free_frames} free frames"
            )
        # Conservative pre-copy invalidation over every mapped range.  This
        # may unpin idle regions, shrinking pinned_vpns — recompute after.
        for start in self._vma_starts:
            vma = self._vmas[start]
            self.notifiers.invalidate_range(vma.start, vma.end)

        child = AddressSpace(self.memory, name)
        child._next_mmap = self._next_mmap
        child._map_gen = self._map_gen
        child._free_ranges = {size: list(starts)
                              for size, starts in self._free_ranges.items()}
        for start in self._vma_starts:
            vma = self._vmas[start]
            child._vmas[start] = Vma(vma.start, vma.end, gen=vma.gen)
        child._vma_starts = list(self._vma_starts)
        for vpn in self._resident:
            frame = self._pages[vpn]
            if frame.pinned:
                # Active DMA holds this page: copy it so the child gets a
                # private snapshot and the parent's DMA target stays put.
                copy = self.memory.allocate()
                copy.copy_contents_from(frame)
                child._pages[vpn] = copy
            else:
                self.memory.share(frame)
                child._pages[vpn] = frame
        child._resident = list(self._resident)
        child._swap = dict(self._swap)
        child._swap_vpns = list(self._swap_vpns)
        self.forks += 1
        return child
