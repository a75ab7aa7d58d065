"""Linear VM reference for ``test_vm_index_props.py``.

Two classes from the VM layer as it was before the indexed rewrite, kept
unedited as the reference the property tests compare against:

* ``SeedAddressSpace`` — ``find_vma`` walks every VMA, ``resident_pages``
  walks every page of the queried range, ``munmap`` scans all VMAs for
  victims, ``read``/``write`` re-fault page by page;
* ``SeedLinearRegionIndex`` — the scan-all-regions endpoint notifier
  dispatch: every invalidation tests every declared region's every segment.

The indexed :class:`repro.kernel.AddressSpace` and
:class:`repro.kernel.IntervalIndex` must be indistinguishable from them.
Do not "improve" this file: its value is that it is the slow, obvious form.
"""

from __future__ import annotations

from repro.hw.memory import PAGE_SIZE, Frame, PhysicalMemory
from repro.kernel.address_space import BadAddress, Vma, page_align, page_count
from repro.kernel.mmu_notifier import MMUNotifierChain

__all__ = ["SeedAddressSpace", "SeedLinearRegionIndex"]


class SeedAddressSpace:
    """Seed address space: linear VMA walks, per-page dict re-walks."""

    MMAP_BASE = 0x7000_0000_0000

    def __init__(self, memory: PhysicalMemory, name: str = "proc"):
        self.memory = memory
        self.name = name
        self._vmas: dict[int, Vma] = {}
        self._pages: dict[int, Frame] = {}
        self._swap: dict[int, bytes] = {}
        self._next_mmap = self.MMAP_BASE
        self._free_ranges: dict[int, list[int]] = {}
        self.notifiers = MMUNotifierChain()
        self._orphans: set[Frame] = set()
        self.faults = 0
        self.cow_breaks = 0
        self.swapins = 0

    # -- VMA management ------------------------------------------------------
    def mmap(self, length: int) -> int:
        if length <= 0:
            raise ValueError(f"mmap length must be positive, got {length}")
        size = page_count(0, length) * PAGE_SIZE
        reusable = self._free_ranges.get(size)
        if reusable:
            start = reusable.pop()
        else:
            start = self._next_mmap
            self._next_mmap += size + PAGE_SIZE
        self._vmas[start] = Vma(start, start + size)
        return start

    def mmap_fixed(self, start: int, length: int) -> int:
        if start % PAGE_SIZE:
            raise ValueError(f"unaligned fixed mapping at {start:#x}")
        size = page_count(0, length) * PAGE_SIZE
        for addr in range(start, start + size, PAGE_SIZE):
            if self.find_vma(addr) is not None:
                raise BadAddress(f"fixed mapping overlaps existing VMA at {addr:#x}")
        for rsize, starts in self._free_ranges.items():
            self._free_ranges[rsize] = [
                s for s in starts if s + rsize <= start or s >= start + size
            ]
        self._vmas[start] = Vma(start, start + size)
        return start

    def find_vma(self, addr: int) -> Vma | None:
        for vma in self._vmas.values():
            if addr in vma:
                return vma
        return None

    def is_mapped_range(self, addr: int, length: int) -> bool:
        if length <= 0:
            return False
        va = page_align(addr)
        end = addr + length
        while va < end:
            vma = self.find_vma(va)
            if vma is None:
                return False
            va = vma.end
        return True

    def munmap(self, addr: int, length: int) -> None:
        start = page_align(addr)
        end = start + page_count(addr, length) * PAGE_SIZE
        victims = [v for v in self._vmas.values() if v.start >= start and v.end <= end]
        covered = sum(v.length for v in victims)
        if not victims or covered < (end - start):
            inside = self.find_vma(addr)
            if inside is not None and (inside.start < start or inside.end > end):
                raise BadAddress("partial VMA unmap not supported")
            if not victims:
                raise BadAddress(f"munmap of unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, end)
        for vma in victims:
            del self._vmas[vma.start]
            for vpn in range(vma.start // PAGE_SIZE, vma.end // PAGE_SIZE):
                frame = self._pages.pop(vpn, None)
                if frame is not None:
                    self._release_frame(frame)
                self._swap.pop(vpn, None)
            self._free_ranges.setdefault(vma.length, []).append(vma.start)

    def destroy(self) -> None:
        self.notifiers.release()
        for vma in list(self._vmas.values()):
            self.munmap(vma.start, vma.length)

    def _release_frame(self, frame: Frame) -> None:
        if frame.pinned:
            self._orphans.add(frame)
        else:
            self.memory.free(frame)

    # -- page table ---------------------------------------------------------
    def page(self, addr: int) -> Frame | None:
        return self._pages.get(addr // PAGE_SIZE)

    def resident_pages(self, addr: int, length: int) -> int:
        first = addr // PAGE_SIZE
        return sum(
            1
            for vpn in range(first, first + page_count(addr, length))
            if vpn in self._pages
        )

    def fault_in(self, addr: int) -> Frame:
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
        self._pages[vpn] = frame
        self.faults += 1
        return frame

    # -- data access ---------------------------------------------------------
    def write(self, addr: int, data) -> None:
        offset = 0
        data = memoryview(data)
        while offset < len(data):
            va = addr + offset
            frame = self.fault_in(va)
            in_page = va % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, len(data) - offset)
            frame.write(in_page, data[offset : offset + chunk])
            offset += chunk

    def read(self, addr: int, length: int) -> bytes:
        out = bytearray()
        offset = 0
        while offset < length:
            va = addr + offset
            frame = self.fault_in(va)
            in_page = va % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, length - offset)
            out += frame.read(in_page, chunk)
            offset += chunk
        return bytes(out)

    # -- pinning hooks -------------------------------------------------------
    def pin_page(self, addr: int) -> Frame:
        frame = self.fault_in(addr)
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

    # -- VM events -----------------------------------------------------------
    def cow_duplicate(self, addr: int, length: int) -> int:
        start = page_align(addr)
        end = addr + length
        if not self.is_mapped_range(addr, length):
            raise BadAddress(f"COW on unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, page_align(end - 1) + PAGE_SIZE)
        duplicated = 0
        for vpn in range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            old = self._pages.get(vpn)
            if old is None or old.pinned:
                continue
            new = self.memory.allocate()
            new.copy_contents_from(old)
            self._pages[vpn] = new
            self.memory.free(old)
            self.cow_breaks += 1
            duplicated += 1
        return duplicated

    def migrate(self, addr: int, length: int) -> int:
        return self.cow_duplicate(addr, length)

    def swap_out(self, addr: int, length: int) -> int:
        start = page_align(addr)
        end = addr + length
        if not self.is_mapped_range(addr, length):
            raise BadAddress(f"swap-out of unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, page_align(end - 1) + PAGE_SIZE)
        moved = 0
        for vpn in range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            frame = self._pages.get(vpn)
            if frame is None or frame.pinned:
                continue
            self._swap[vpn] = frame.read(0, PAGE_SIZE)
            del self._pages[vpn]
            self.memory.free(frame)
            moved += 1
        return moved


class SeedLinearRegionIndex:
    """The seed endpoint-notifier dispatch: scan every region's segments."""

    def __init__(self):
        self._ranges: dict[int, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._ranges)

    def __contains__(self, key: int) -> bool:
        return key in self._ranges

    def add(self, key: int, ranges) -> None:
        if key in self._ranges:
            raise ValueError(f"key {key} already indexed")
        self._ranges[key] = [(s, e) for s, e in ranges]

    def remove(self, key: int) -> None:
        del self._ranges[key]

    def overlapping(self, start: int, end: int) -> list[int]:
        if start >= end:
            return []
        return [
            key
            for key, ranges in self._ranges.items()
            if any(s < end and start < e for s, e in ranges)
        ]
