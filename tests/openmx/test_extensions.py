"""Tests for the paper's proposed extensions (Sections 4.3 and 5):
synchronous prefix pinning and adaptive (blocking-only) overlap."""

import pytest

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB


def transfer(cluster, nbytes, blocking=True, tag=1):
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    data = bytes(i % 253 for i in range(nbytes))
    sp.write(sbuf, data)

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, tag,
                                 blocking=blocking)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, nbytes, tag, blocking=blocking)
        yield from r.wait(req)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    assert rp.read(rbuf, nbytes) == data


def first(cluster, name):
    """Time of the first ``name`` mark on the cluster's trace stream."""
    return next(m.start_ns for m in cluster.spans.marks() if m.name == name)


def test_sync_prefix_pins_pages_before_rndv():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            overlap_sync_pages=16),
        trace=True,
    )
    transfer(cluster, 2 * MIB)
    counters = cluster.nodes[0].driver.counters
    assert counters["prefix_pinned"] >= 1
    # The rndv still leaves before the FULL pin completes (still overlapped).
    assert first(cluster, "send_rndv") < first(cluster, "send_pinned")


def test_sync_prefix_delivers_correctly_for_tiny_regions():
    # Prefix larger than the region: degenerates to a full synchronous pin.
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            overlap_sync_pages=4096)
    )
    transfer(cluster, 256 * 1024)


def test_sync_prefix_with_cache_mode_hits_skip_prefix():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE,
                            overlap_sync_pages=8)
    )
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 1 * MIB
    sbuf, rbuf = sp.malloc(n), rp.malloc(n)
    sp.write(sbuf, b"z" * n)

    def sender():
        for tag in (1, 2):  # same buffer reused -> cached, stays pinned
            req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, tag,
                                     blocking=True)
            yield from s.wait(req)

    def receiver():
        for tag in (1, 2):
            req = yield from r.irecv(rbuf, n, tag, blocking=True)
            yield from r.wait(req)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    # Prefix only ran for the first (unpinned) use of the send region.
    assert cluster.nodes[0].driver.counters["prefix_pinned"] == 1


def test_adaptive_overlap_nonblocking_pins_synchronously():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            adaptive_overlap=True),
        trace=True,
    )
    transfer(cluster, 2 * MIB, blocking=False)
    # Non-blocking + adaptive: the pin completes BEFORE the rndv (Figure 2).
    assert first(cluster, "send_pinned") < first(cluster, "send_rndv")


def test_adaptive_overlap_blocking_still_overlaps():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            adaptive_overlap=True),
        trace=True,
    )
    transfer(cluster, 2 * MIB, blocking=True)
    assert first(cluster, "send_rndv") < first(cluster, "send_pinned")


def test_mpi_blocking_calls_mark_requests_blocking():
    from repro.mpi import Communicator

    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            adaptive_overlap=True),
        trace=True,
    )
    comm = Communicator(cluster.all_libs())
    r0, r1 = comm.rank(0), comm.rank(1)
    n = 1 * MIB
    sbuf, rbuf = r0.alloc(n), r1.alloc(n)
    r0.write(sbuf, b"m" * n)
    env = cluster.env

    def rank0():
        yield from r0.send(sbuf, n, dest=1, tag=1)

    def rank1():
        yield from r1.recv(rbuf, n, src=0, tag=1)

    done = env.all_of([env.process(rank0()), env.process(rank1())])
    env.run(until=done)
    # MPI_Send/Recv are blocking: the adaptive policy keeps them overlapped.
    assert first(cluster, "send_rndv") < first(cluster, "send_pinned")


def test_sync_prefix_reduces_misses_under_pressure():
    """With the receiver's pinning slowed (tiny poll slices on a busy core
    sharing the BH), a synchronous prefix eliminates head-of-transfer
    misses."""
    from repro.kernel.context import AcquiringContext

    def run(prefix_pages):
        cluster = build_cluster(
            nhosts=3,
            config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                                overlap_sync_pages=prefix_pages,
                                resend_timeout_ns=20_000_000),
            first_app_core=0,
        )

        def flood_handler(frame, ctx):
            yield from ctx.charge(10_000)

        for node in cluster.nodes:
            node.kernel.ethernet.register_protocol(0x0800, flood_handler)
        env = cluster.env

        def flood():
            src = cluster.nodes[2]
            dst = cluster.nodes[1].host.nic.address
            ctx = AcquiringContext(env, src.host.cores[-1])
            while True:
                yield from src.kernel.ethernet.xmit(ctx, dst, "x", 4096,
                                                    ethertype=0x0800)
                yield env.timeout(10_500)

        env.process(flood())
        transfer(cluster, 1 * MIB)
        return sum(
            node.driver.counters["overlap_miss_recv"]
            + node.driver.counters["overlap_miss_send"]
            for node in cluster.nodes
        )

    without = run(0)
    with_prefix = run(64)
    assert without > 0
    assert with_prefix < without
