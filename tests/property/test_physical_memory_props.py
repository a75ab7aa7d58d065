"""Property-based tests: the frame allocator against a full free-list model.

``PhysicalMemory`` never lists its free pfns in full.  The reference model
here does, as one descending list popped from the end, and random
allocate/free/share sequences on a small memory (so exhaustion is reached)
must hand out the same pfns, report the same counts after every step and
run out of memory at the same step.
"""

from hypothesis import given, settings, strategies as st

from repro.hw import PAGE_SIZE, OutOfMemory, PhysicalMemory


class FullFreeListModel:
    """Reference allocator: every free pfn listed, lowest on top."""

    def __init__(self, nframes: int):
        self.nframes = nframes
        self.free = list(range(nframes - 1, -1, -1))
        self.maps: dict[int, int] = {}

    def allocate(self) -> int | None:
        if not self.free:
            return None
        pfn = self.free.pop()
        self.maps[pfn] = 1
        return pfn

    def share(self, pfn: int) -> None:
        self.maps[pfn] += 1

    def release(self, pfn: int) -> None:
        self.maps[pfn] -= 1
        if self.maps[pfn] == 0:
            del self.maps[pfn]
            self.free.append(pfn)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.just(0)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("share"), st.integers(min_value=0, max_value=63)),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(nframes=st.integers(min_value=8, max_value=32), ops=OPS)
def test_allocator_matches_full_free_list(nframes, ops):
    mem = PhysicalMemory(nframes * PAGE_SIZE)
    model = FullFreeListModel(nframes)
    frames = {}
    mappings: list[int] = []  # one entry per live mapping reference
    for op, index in ops:
        if op == "allocate":
            want = model.allocate()
            try:
                got = mem.allocate()
            except OutOfMemory:
                assert want is None
            else:
                assert got.pfn == want
                frames[got.pfn] = got
                mappings.append(got.pfn)
        elif mappings:
            pfn = mappings[index % len(mappings)]
            if op == "share":
                mem.share(frames[pfn])
                model.share(pfn)
                mappings.append(pfn)
            else:
                mem.free(frames[pfn])
                model.release(pfn)
                mappings.remove(pfn)
        assert mem.free_frames == len(model.free)
        assert mem.used_frames == nframes - len(model.free)
        assert sorted(f.pfn for f in mem.iter_used()) == sorted(model.maps)
