"""Property-based tests: address-space copies equal a page-by-page walk.

``AddressSpace.read`` and ``write`` walk their pages in one loop and copy
each byte once.  That must be a pure speed-up: on an address space that
holds every kind of page (absent, swapped out, resident but never written,
written, copy-on-write shared with a forked child) and an access that may
run into the unmapped gap after the mapping, they must do what the spec
below does, page by page through ``Frame.read``/``Frame.write``: the same
bytes, faults, COW breaks and swap-ins, the same frames in the same pfn
order, the same notifier ranges, the same exception text (after writing
the same pages before it), and a read must allocate no frame's bytes.
"""

from hypothesis import given, settings, strategies as st

from repro.hw import PAGE_SIZE, PhysicalMemory
from repro.kernel import AddressSpace, BadAddress, CallbackNotifier

NPAGES = 5


def _spec_write(aspace, addr, data):
    """Per page: fault it in or break its COW share, then ``Frame.write``."""
    offset = 0
    while offset < len(data):
        va = addr + offset
        frame = aspace.page(va)
        if frame is None:
            frame = aspace.fault_in(va)
        elif frame.map_count > 1:
            frame = aspace._break_cow(va // PAGE_SIZE, notify=True)
        in_page = va % PAGE_SIZE
        chunk = min(PAGE_SIZE - in_page, len(data) - offset)
        frame.write(in_page, data[offset:offset + chunk])
        offset += chunk


def _spec_read(aspace, addr, length):
    """Per page: fault it in if absent, then ``Frame.read``."""
    out = b""
    offset = 0
    while offset < length:
        va = addr + offset
        frame = aspace.page(va)
        if frame is None:
            frame = aspace.fault_in(va)
        in_page = va % PAGE_SIZE
        chunk = min(PAGE_SIZE - in_page, length - offset)
        out += frame.read(in_page, chunk)
        offset += chunk
    return out


def _pattern(page):
    return bytes((page * 37 + i) % 253 for i in range(PAGE_SIZE))


class _World:
    """A parent address space with one NPAGES mapping, maybe a forked
    child, and a log of every notifier range either one fires."""

    def __init__(self, kinds, fork, private):
        self.memory = PhysicalMemory(64 * PAGE_SIZE)
        self.parent = AddressSpace(self.memory, "parent")
        self.va = va = self.parent.mmap(NPAGES * PAGE_SIZE)
        for page, kind in enumerate(kinds):
            addr = va + page * PAGE_SIZE
            if kind == "zero":
                self.parent.fault_in(addr)  # resident, never written
            elif kind != "absent":
                self.parent.write(addr, _pattern(page))
                if kind == "swapped":
                    self.parent.swap_out(addr, PAGE_SIZE)
        self.spaces = [self.parent]
        if fork:
            # Every resident page is now shared; the child's own writes
            # take some of them back private.
            child = self.parent.fork("child")
            for page in private:
                child.write(va + page * PAGE_SIZE + 7, b"child")
            self.spaces.append(child)
        self.log = []
        for space in self.spaces:
            space.notifiers.register(CallbackNotifier(
                lambda start, end, name=space.name:
                    self.log.append((name, start, end))))

    def frames(self):
        return [f for space in self.spaces for f in space._pages.values()]

    def state(self):
        return (
            [sorted((vpn, f.pfn, f.map_count,
                     None if f._data is None else bytes(f._data))
                    for vpn, f in space._pages.items())
             for space in self.spaces],
            [sorted(space._swap.items()) for space in self.spaces],
            [(space.faults, space.cow_breaks, space.swapins)
             for space in self.spaces],
            (self.memory._next_pfn, list(self.memory._freed)),
            self.log,
        )


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except BadAddress as exc:
        return type(exc).__name__, str(exc)


_KINDS = st.lists(st.sampled_from(["absent", "zero", "data", "swapped"]),
                  min_size=NPAGES, max_size=NPAGES)
_PRIVATE = st.lists(st.integers(0, NPAGES - 1), max_size=3)
# (first page, offset in it, length): long accesses from the last pages
# run into the unmapped guard gap after the mapping.
_ACCESS = st.tuples(st.integers(0, NPAGES - 1), st.integers(0, PAGE_SIZE - 1),
                    st.one_of(st.integers(0, 64),
                              st.integers(PAGE_SIZE - 64,
                                          3 * PAGE_SIZE + 64)))


@settings(max_examples=150, deadline=None)
@given(kinds=_KINDS, fork=st.booleans(), private=_PRIVATE, access=_ACCESS)
def test_read_equals_page_by_page_spec(kinds, fork, private, access):
    world, twin = _World(kinds, fork, private), _World(kinds, fork, private)
    page, in_page, length = access
    addr = world.va + page * PAGE_SIZE + in_page
    lazy = [f for f in world.frames() if f._data is None]
    assert (_outcome(world.parent.read, addr, length)
            == _outcome(_spec_read, twin.parent, addr, length))
    assert world.state() == twin.state()
    # A read leaves every never-written frame unallocated.
    assert all(f._data is None for f in lazy)


@settings(max_examples=150, deadline=None)
@given(kinds=_KINDS, fork=st.booleans(), private=_PRIVATE, access=_ACCESS)
def test_write_equals_page_by_page_spec(kinds, fork, private, access):
    world, twin = _World(kinds, fork, private), _World(kinds, fork, private)
    page, in_page, length = access
    addr = world.va + page * PAGE_SIZE + in_page
    data = bytes((5 * i + 1) % 256 for i in range(length))
    assert (_outcome(world.parent.write, addr, data)
            == _outcome(_spec_write, twin.parent, addr, data))
    assert world.state() == twin.state()
