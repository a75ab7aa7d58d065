"""Property-based tests: watermark-based loss detection equals full scans.

``_PullState`` keeps ``first_missing``, the index of the first chunk not
yet received, and starts every loss scan there.  That must be a pure
speed-up: for *any* sequence of block requests, optimistic re-requests,
timer-forced resends and reply arrivals (in order, out of order, or lost
on the wire), its ``evidently_lost``, ``unreceived`` and ``block_complete``
must return exactly what the full scans in ``pull_loss_spec.py`` return,
and every chunk below the watermark must have been received.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.openmx.driver import _PullState

from tests.property import pull_loss_spec as spec

# One step: advance the clock (0 keeps same-instant ties), then act.
#   ("block",)               request the next pull block
#   ("rerequest", pick, n)   re-request a run of up to n missing chunks
#   ("timer",)               fallback timer: force-resend every missing chunk
#   ("arrive", lost)         the oldest outstanding reply arrives or is lost
#   ("stray", pick)          some requested chunk's reply arrives early
_OPS = st.one_of(
    st.tuples(st.just("block")),
    st.tuples(st.just("rerequest"), st.integers(0, 63), st.integers(1, 4)),
    st.tuples(st.just("timer")),
    st.tuples(st.just("arrive"), st.booleans()),
    st.tuples(st.just("stray"), st.integers(0, 63)),
)

_RUNS = st.tuples(
    st.integers(min_value=1, max_value=48),  # nchunks
    st.integers(min_value=1, max_value=8),  # block_chunks
    st.lists(st.tuples(st.integers(0, 3), _OPS), max_size=120),
)


def _bare_state(nchunks: int, block_chunks: int) -> _PullState:
    state = _PullState(
        handle=1, region=None, src_board="b", src_endpoint=0,
        sender_region=0, sender_seq=0, length=nchunks * 8, nchunks=nchunks,
        chunk_bytes=8, block_chunks=block_chunks,
    )
    state.received = [False] * nchunks
    state.last_request_ns = [-1] * nchunks
    state.nblocks = (nchunks + block_chunks - 1) // block_chunks
    return state


def _check(state: _PullState, chunk: int) -> None:
    received, first = state.received, state.first_missing
    assert all(received[:first])
    assert first == state.nchunks or not received[first]
    assert state.evidently_lost(chunk) == spec.evidently_lost(
        received, state.last_request_ns, state.requested_chunks, chunk)
    assert state.unreceived() == spec.unreceived(
        received, state.requested_chunks)
    block = chunk // state.block_chunks
    assert state.block_complete(block) == spec.block_complete(
        received, state.block_chunks, block)


@settings(max_examples=300, deadline=None)
@given(run=_RUNS)
def test_watermark_scans_equal_full_scans(run):
    nchunks, block_chunks, steps = run
    state = _bare_state(nchunks, block_chunks)
    outstanding: deque[int] = deque()  # replies in flight, in request order
    now = 0

    def request(chunks):
        for c in chunks:
            state.last_request_ns[c] = now
            outstanding.append(c)

    for advance, op in steps:
        now += advance
        kind = op[0]
        if kind == "block":
            if state.next_block < state.nblocks:
                lo = state.next_block * block_chunks
                hi = min(lo + block_chunks, nchunks)
                request(range(lo, hi))
                state.requested_chunks = max(state.requested_chunks, hi)
                state.next_block += 1
        elif kind == "rerequest":
            missing = state.unreceived()
            if missing:
                first = missing[op[1] % len(missing)]
                request([c for c in missing if first <= c < first + op[2]])
        elif kind == "timer":
            missing = state.unreceived()
            for c in missing:  # forced, as the driver's timer does
                state.last_request_ns[c] = -(10**18)
            request(missing)
        else:
            if kind == "arrive":
                if not outstanding:
                    continue
                chunk = outstanding.popleft()
                if op[1]:
                    continue  # lost on the wire
            else:
                if not state.requested_chunks:
                    continue
                chunk = op[1] % state.requested_chunks
            if state.received[chunk]:
                continue  # duplicate: the driver drops it before marking
            state.mark_received(chunk)
            _check(state, chunk)
    for chunk in range(state.requested_chunks):
        _check(state, chunk)
