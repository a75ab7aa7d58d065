"""Intra-node communication: endpoints on one host loop back through the
kernel without touching the wire."""

import pytest

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import KIB, MIB


def test_same_host_transfer_uses_loopback_not_wire():
    cluster = build_cluster(nhosts=1, procs_per_host=2,
                            config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    env = cluster.env
    s, r = cluster.lib(0, 0), cluster.lib(0, 1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[0].procs[1]
    n = 1 * MIB
    sbuf, rbuf = sp.malloc(n), rp.malloc(n)
    data = bytes(i % 113 for i in range(n))
    sp.write(sbuf, data)

    def sender():
        req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, n, 1)
        yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    assert rp.read(rbuf, n) == data
    host = cluster.nodes[0].host
    assert host.nic.tx_frames.value == 0  # nothing hit the wire
    assert cluster.nodes[0].kernel.ethernet.loopback_packets > 0
    assert cluster.fabric.frames_carried.value == 0


def test_intranode_latency_beats_internode_for_small_messages():
    """Loopback skips wire serialization and switch latency, so small
    (eager) messages complete sooner.  Large messages are NOT faster: one
    bottom-half core now does both sides' protocol work — which is exactly
    why the real Open-MX grew a dedicated shared-memory channel."""

    def elapsed(nhosts, procs_per_host, libs, n):
        cluster = build_cluster(nhosts=nhosts, procs_per_host=procs_per_host,
                                config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
        env = cluster.env
        s = cluster.lib(*libs[0])
        r = cluster.lib(*libs[1])
        sp = cluster.nodes[libs[0][0]].procs[libs[0][1]]
        rp = cluster.nodes[libs[1][0]].procs[libs[1][1]]
        sbuf, rbuf = sp.malloc(n), rp.malloc(n)
        sp.write(sbuf, b"x" * n)
        marks = {}

        def sender():
            for tag in (1, 2):  # second iteration = steady state
                req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, tag)
                yield from s.wait(req)

        def receiver():
            for tag in (1, 2):
                t0 = env.now
                req = yield from r.irecv(rbuf, n, tag)
                yield from r.wait(req)
                marks[tag] = env.now - t0

        env.run(until=env.all_of([env.process(sender()),
                                  env.process(receiver())]))
        return marks[2]

    # 64 KiB: small enough that handshake+wire latency dominate, large
    # enough to go rendezvous (eager messages land before the recv is even
    # posted here, hiding transit time on both paths).
    n = 64 * KIB
    intra = elapsed(1, 2, [(0, 0), (0, 1)], n)
    inter = elapsed(2, 1, [(0, 0), (1, 0)], n)
    assert intra < 0.9 * inter


def test_mixed_intra_and_inter_collective():
    import numpy as np

    from repro.mpi import Communicator, allreduce

    cluster = build_cluster(nhosts=2, procs_per_host=2,
                            config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    comm = Communicator(cluster.all_libs())
    count = 1024
    n = count * 8
    env = cluster.env
    bufs = {}
    for rc in comm.ranks():
        s, r = rc.alloc(n), rc.alloc(n)
        rc.write(s, np.full(count, float(rc.rank + 1)).tobytes())
        bufs[rc.rank] = (s, r)

    def body(rc):
        s, r = bufs[rc.rank]
        yield from allreduce(rc, s, r, n)

    env.run(until=env.all_of([env.process(body(rc)) for rc in comm.ranks()]))
    for rc in comm.ranks():
        got = np.frombuffer(rc.read(bufs[rc.rank][1], n))
        assert got[0] == 1 + 2 + 3 + 4
