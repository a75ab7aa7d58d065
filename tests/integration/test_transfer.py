"""End-to-end transfers over the full stack, in every pinning mode."""

import pytest

from repro.cluster import build_cluster
from repro.openmx import OpenMXConfig, PinningMode
from repro.openmx.config import EAGER_MAX
from repro.util.units import KIB, MIB


def payload(n, seed=7):
    return bytes((i * 131 + seed) % 256 for i in range(n))


def transfer_once(cluster, nbytes, tag=0x42, reuse=1):
    """Send `nbytes` from node0 to node1 `reuse` times; return elapsed list."""
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf = sp.malloc(nbytes)
    rbuf = rp.malloc(nbytes)
    data = payload(nbytes)
    sp.write(sbuf, data)
    times = []

    def sender():
        for _ in range(reuse):
            req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, tag)
            yield from s.wait(req)
            assert req.status == "ok", req.status

    def receiver():
        for _ in range(reuse):
            t0 = env.now
            req = yield from r.irecv(rbuf, nbytes, tag)
            yield from r.wait(req)
            assert req.status == "ok", req.status
            times.append(env.now - t0)

    both = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=both)
    assert rp.read(rbuf, nbytes) == data
    return times


@pytest.mark.parametrize("mode", list(PinningMode))
def test_large_transfer_delivers_exact_bytes(mode):
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode))
    transfer_once(cluster, 1 * MIB)


@pytest.mark.parametrize("mode", list(PinningMode))
def test_eager_transfer_delivers_exact_bytes(mode):
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode))
    transfer_once(cluster, 8 * KIB)


def test_eager_boundary_sizes():
    cluster = build_cluster()
    transfer_once(cluster, EAGER_MAX, tag=1)  # largest eager
    transfer_once(cluster, EAGER_MAX + 1, tag=2)  # smallest rendezvous


def test_odd_sizes_and_unaligned_lengths():
    cluster = build_cluster()
    for i, nbytes in enumerate([1, 100, 4097, 65537, 1 * MIB + 13]):
        transfer_once(cluster, nbytes, tag=i)


def test_cached_mode_second_transfer_faster():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    times = transfer_once(cluster, 4 * MIB, reuse=3)
    # First transfer pays declaration+pin; later ones hit the cache.
    assert times[1] < times[0]
    assert times[2] == pytest.approx(times[1], rel=0.05)


def test_pin_per_comm_pays_every_time():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    times = transfer_once(cluster, 4 * MIB, reuse=3)
    assert times[2] == pytest.approx(times[1], rel=0.05)
    cached = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    cached_times = transfer_once(cached, 4 * MIB, reuse=3)
    # Steady-state: pin-per-comm strictly slower than cached.
    assert times[2] > cached_times[2]


def test_overlap_mode_beats_pin_per_comm_without_reuse():
    def steady(mode):
        cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode))
        return transfer_once(cluster, 8 * MIB, reuse=2)[1]

    assert steady(PinningMode.OVERLAP) < steady(PinningMode.PIN_PER_COMM)


def test_no_overlap_misses_under_normal_load():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP))
    transfer_once(cluster, 8 * MIB, reuse=2)
    c = cluster.nodes[0].driver.counters
    c2 = cluster.nodes[1].driver.counters
    total_misses = (c["overlap_miss_send"] + c["overlap_miss_recv"]
                    + c2["overlap_miss_send"] + c2["overlap_miss_recv"])
    # Paper 4.3: under regular load, misses are vanishingly rare.
    assert total_misses == 0


def test_pinned_pages_released_after_uncached_transfer():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    transfer_once(cluster, 2 * MIB)
    assert cluster.nodes[0].host.memory.pinned_frames == 0
    assert cluster.nodes[1].host.memory.pinned_frames == 0


def test_cached_mode_keeps_pages_pinned():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    transfer_once(cluster, 2 * MIB)
    assert cluster.nodes[0].host.memory.pinned_frames > 0
    assert cluster.nodes[1].host.memory.pinned_frames > 0


def test_unexpected_message_matched_after_late_recv():
    cluster = build_cluster()
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    nbytes = 2 * MIB
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    data = payload(nbytes)
    sp.write(sbuf, data)
    done = env.event()

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, 9)
        yield from s.wait(req)

    def receiver():
        yield env.timeout(200_000)  # post the recv long after the rndv lands
        req = yield from r.irecv(rbuf, nbytes, 9)
        yield from r.wait(req)
        done.succeed()

    env.process(sender())
    env.process(receiver())
    env.run(until=done)
    assert rp.read(rbuf, nbytes) == data


def test_tag_mismatch_keeps_messages_apart():
    cluster = build_cluster()
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 64 * KIB
    bufs = [sp.malloc(n) for _ in range(2)]
    rbufs = [rp.malloc(n) for _ in range(2)]
    d1, d2 = payload(n, 1), payload(n, 2)
    sp.write(bufs[0], d1)
    sp.write(bufs[1], d2)
    done = env.event()

    def sender():
        r1 = yield from s.isend(bufs[0], n, r.board, r.endpoint_id, 111)
        r2 = yield from s.isend(bufs[1], n, r.board, r.endpoint_id, 222)
        yield from s.wait_all([r1, r2])

    def receiver():
        # Post in the opposite order of the sends.
        q2 = yield from r.irecv(rbufs[1], n, 222)
        q1 = yield from r.irecv(rbufs[0], n, 111)
        yield from r.wait_all([q1, q2])
        done.succeed()

    env.process(sender())
    env.process(receiver())
    env.run(until=done)
    assert rp.read(rbufs[0], n) == d1
    assert rp.read(rbufs[1], n) == d2
