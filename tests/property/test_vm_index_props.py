"""Property-based tests: the indexed VM layer equals the linear seed layer.

The VM-index change (sorted-VMA bisect lookups, sorted resident/swap page
lists, interval-dispatched MMU notifiers) must be a pure representation
change: for *any* sequence of mmap/mmap_fixed/munmap/write/read/COW/swap/
pin/declare/destroy operations, the indexed :class:`AddressSpace` and
:class:`IntervalIndex` must produce exactly the observable behaviour of the
pre-index implementations kept next to this file in
``vm_linear_reference.py`` — same return values, same exceptions, same
fault/COW/swap counters, same notifier dispatch sets, same bytes.
"""

from hypothesis import given, settings, strategies as st

from repro.hw import PAGE_SIZE, PhysicalMemory
from repro.kernel import AddressSpace, CallbackNotifier, IntervalIndex

from tests.property import vm_linear_reference as _seed

FIXED_BASE = AddressSpace.MMAP_BASE - (1 << 32)


class Side:
    """One address space + region index + notifier log of one implementation."""

    def __init__(self, aspace_cls, index_cls):
        self.aspace = aspace_cls(PhysicalMemory(1 << 24), "prop")
        self.index = index_cls()
        self.invalidations: list[tuple[int, int, tuple[int, ...]]] = []
        self.pins: dict[int, list] = {}  # region key -> pinned frames
        self.aspace.notifiers.register(CallbackNotifier(self._on_invalidate))

    def _on_invalidate(self, start: int, end: int) -> None:
        # Driver-style dispatch: the index says which regions are hit; the
        # hit regions drop their pins.  Record the dispatch set so the two
        # sides can be compared invalidation by invalidation.
        hit = sorted(self.index.overlapping(start, end))
        self.invalidations.append((start, end, tuple(hit)))
        for key in hit:
            for frame in self.pins.pop(key, []):
                self.aspace.unpin_frame(frame)


class Twin:
    """Runs one op trace on both stacks and insists they are identical."""

    def __init__(self):
        self.cur = Side(AddressSpace, IntervalIndex)
        self.seed = Side(_seed.SeedAddressSpace, _seed.SeedLinearRegionIndex)
        self.buffers: list[tuple[int, int]] = []  # (addr, nbytes), both sides
        self.fixed: list[tuple[int, int]] = []
        self.next_key = 1
        self.stamp = 0

    def both(self, fn):
        """Apply ``fn(aspace)`` to both sides; return values and exceptions
        (type and message) must match exactly."""
        results = []
        for side in (self.cur, self.seed):
            try:
                results.append(("ok", fn(side.aspace)))
            except Exception as exc:  # noqa: BLE001 - comparing behaviour
                results.append(("err", type(exc).__name__, str(exc)))
        assert results[0] == results[1], f"stacks diverged: {results}"
        return results[0]

    # -- operations, mirroring what the Open-MX stack does ------------------
    def do_mmap(self, npages: int, slack: int) -> None:
        nbytes = npages * PAGE_SIZE - (slack % PAGE_SIZE)
        kind, addr = self.both(lambda a: a.mmap(nbytes))
        self.stamp = (self.stamp + 1) % 249
        payload = bytes([self.stamp + 1]) * min(nbytes, 3 * PAGE_SIZE)
        self.both(lambda a: a.write(addr, payload))
        self.buffers.append((addr, nbytes))

    def do_mmap_fixed(self, slot: int, npages: int) -> None:
        start = FIXED_BASE + (slot % 8) * (1 << 20)
        # Deliberately collides with earlier fixed maps sometimes: the
        # overlap BadAddress (and its message) must match on both sides.
        kind = self.both(lambda a: a.mmap_fixed(start, npages * PAGE_SIZE))[0]
        if kind == "ok":
            self.fixed.append((start, npages * PAGE_SIZE))

    def do_munmap(self, idx: int) -> None:
        pool = self.buffers + self.fixed
        if not pool:
            return
        addr, nbytes = pool[idx % len(pool)]
        self.both(lambda a: a.munmap(addr, nbytes))
        if (addr, nbytes) in self.buffers:
            self.buffers.remove((addr, nbytes))
        else:
            self.fixed.remove((addr, nbytes))

    def do_munmap_bogus(self, idx: int) -> None:
        # Unmapped and partial ranges must raise identically.
        if not self.buffers:
            return
        addr, nbytes = self.buffers[idx % len(self.buffers)]
        self.both(lambda a: a.munmap(addr + PAGE_SIZE,
                                     max(PAGE_SIZE, nbytes - PAGE_SIZE)))

    def do_cow(self, idx: int) -> None:
        if not self.buffers:
            return
        addr, nbytes = self.buffers[idx % len(self.buffers)]
        self.both(lambda a: a.cow_duplicate(addr, nbytes))

    def do_swap(self, idx: int) -> None:
        if not self.buffers:
            return
        addr, nbytes = self.buffers[idx % len(self.buffers)]
        self.both(lambda a: a.swap_out(addr, nbytes))

    def do_declare(self, idx: int, nseg: int) -> None:
        """Register a (possibly vectorial) pinned region with both indexes."""
        if not self.buffers:
            return
        key = self.next_key
        self.next_key += 1
        ranges = []
        for i in range(1 + nseg % 3):
            addr, nbytes = self.buffers[(idx + i) % len(self.buffers)]
            ranges.append((addr, addr + nbytes))
        for side in (self.cur, self.seed):
            side.index.add(key, ranges)
            frames = []
            for start, end in ranges:
                for va in range(start, end, PAGE_SIZE):
                    frames.append(side.aspace.pin_page(va))
            side.pins[key] = frames

    def do_destroy(self) -> None:
        if not self.cur.index:
            return
        key = min(k for k in range(1, self.next_key) if k in self.cur.index)
        for side in (self.cur, self.seed):
            side.index.remove(key)
            for frame in side.pins.pop(key, []):
                side.aspace.unpin_frame(frame)

    def do_probe(self, idx: int, span: int) -> None:
        if not self.buffers:
            return
        addr, nbytes = self.buffers[idx % len(self.buffers)]
        probe_addr = addr - PAGE_SIZE + (span % (nbytes + 2 * PAGE_SIZE))
        self.both(lambda a: a.resident_pages(probe_addr, span % (1 << 18) + 1))
        self.both(lambda a: a.is_mapped_range(probe_addr, span % (1 << 18) + 1))
        self.both(
            lambda a: (v.start, v.end)
            if (v := a.find_vma(probe_addr)) is not None else None)
        self.both(lambda a: a.read(addr, min(nbytes, PAGE_SIZE + 7)))

    def check(self) -> None:
        cur, seed = self.cur, self.seed
        assert cur.invalidations == seed.invalidations
        assert cur.aspace.faults == seed.aspace.faults
        assert cur.aspace.cow_breaks == seed.aspace.cow_breaks
        assert cur.aspace.swapins == seed.aspace.swapins
        assert cur.aspace.orphan_count == seed.aspace.orphan_count
        assert cur.aspace.memory.free_frames == seed.aspace.memory.free_frames
        assert (cur.aspace.memory.pinned_frames
                == seed.aspace.memory.pinned_frames)
        span = (1 << 24)
        base = AddressSpace.MMAP_BASE - (1 << 32)
        assert (cur.aspace.resident_pages(base, span + (1 << 32))
                == seed.aspace.resident_pages(base, span + (1 << 32)))
        assert len(cur.index) == len(seed.index)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("mmap"), st.integers(1, 8), st.integers(0, 4095)),
        st.tuples(st.just("mmap_fixed"), st.integers(0, 7), st.integers(1, 3)),
        st.tuples(st.just("munmap"), st.integers(0, 99)),
        st.tuples(st.just("munmap_bogus"), st.integers(0, 99)),
        st.tuples(st.just("cow"), st.integers(0, 99)),
        st.tuples(st.just("swap"), st.integers(0, 99)),
        st.tuples(st.just("declare"), st.integers(0, 99), st.integers(0, 5)),
        st.tuples(st.just("destroy")),
        st.tuples(st.just("probe"), st.integers(0, 99), st.integers(0, 1 << 19)),
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=40, deadline=None)
@given(_OPS)
def test_indexed_vm_layer_matches_linear_seed(ops):
    twin = Twin()
    for op, *args in ops:
        getattr(twin, f"do_{op}")(*args)
        twin.check()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("add"),
                      st.lists(st.tuples(st.integers(0, 1 << 20),
                                         st.integers(0, 1 << 20)),
                               min_size=1, max_size=4)),
            st.tuples(st.just("remove"), st.integers(0, 99)),
            st.tuples(st.just("query"), st.integers(0, 1 << 20),
                      st.integers(0, 1 << 20)),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_interval_index_matches_linear_scan(ops):
    # Keys are handed out monotonically (like driver region ids), so the
    # linear index's dict order is ascending and the two ``overlapping``
    # results must match as *ordered lists*, not just as sets — dispatch
    # order is part of the determinism contract.
    fast, slow = IntervalIndex(), _seed.SeedLinearRegionIndex()
    next_key = 1
    for op, *args in ops:
        if op == "add":
            # Empty ranges are unrepresentable in production (Segment
            # requires length > 0), and the two indexes legitimately
            # disagree on them: the seed's ``s < end and start < e`` test
            # never matches an empty range, the interval tree may.
            ranges = [(min(a, b), max(a, b)) for a, b in args[0] if a != b]
            if not ranges:
                continue
            fast.add(next_key, ranges)
            slow.add(next_key, ranges)
            next_key += 1
        elif op == "remove":
            live = [k for k in range(1, next_key) if k in fast]
            if not live:
                continue
            key = live[args[0] % len(live)]
            fast.remove(key)
            slow.remove(key)
        else:
            a, b = args
            start, end = min(a, b), max(a, b)
            assert fast.overlapping(start, end) == slow.overlapping(start, end)
            assert fast.overlapping(start, start) == []
    assert len(fast) == len(slow)
