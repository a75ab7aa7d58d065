"""Property: the whole stack is deterministic — identical runs produce
identical timings, counters and traces."""

from hypothesis import given, settings, strategies as st

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import KIB


def simulate(mode, nbytes, nmsgs, trace):
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode),
                            trace=trace)
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, b"d" * nbytes)

    def sender():
        for i in range(nmsgs):
            req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, i)
            yield from s.wait(req)

    def receiver():
        for i in range(nmsgs):
            req = yield from r.irecv(rbuf, nbytes, i)
            yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    counters = tuple(
        sorted(cluster.nodes[n].driver.counters.as_dict().items())
        for n in range(2)
    )
    spans = cluster.spans
    trace_sig = (tuple((m.start_ns, m.source, m.name) for m in spans.marks()),
                 tuple((s.start_ns, s.end_ns, s.source, s.name)
                       for s in spans.spans()))
    return env.now, counters, trace_sig


@settings(max_examples=8, deadline=None)
@given(
    mode=st.sampled_from(list(PinningMode)),
    nbytes=st.integers(min_value=1, max_value=512 * KIB),
    nmsgs=st.integers(min_value=1, max_value=4),
)
def test_bit_identical_reruns(mode, nbytes, nmsgs):
    a = simulate(mode, nbytes, nmsgs, trace=True)
    b = simulate(mode, nbytes, nmsgs, trace=True)
    assert a == b
