"""Driver robustness: bogus, stale and duplicate packets must be counted
and dropped, never crash or corrupt."""

import pytest

from repro.cluster import build_cluster
from repro.hw import EthernetFrame
from repro.kernel.ethernet import ETH_P_OMX
from repro.openmx import (
    Notify,
    OpenMXConfig,
    PinningMode,
    PullReply,
    PullRequest,
)
from repro.util.units import KIB, MIB


def build():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    return cluster


def inject(cluster, node, pkt, payload_bytes=64):
    """Drop a crafted frame straight into a node's NIC."""
    nic = cluster.nodes[node].host.nic
    frame = EthernetFrame(src="forged", dst=nic.address, ethertype=ETH_P_OMX,
                          payload=pkt, payload_bytes=payload_bytes)
    nic.deliver(frame)
    cluster.env.run(until=cluster.env.now + 1_000_000)


def test_pull_request_for_unknown_region_dropped():
    cluster = build()
    inject(cluster, 0, PullRequest(src_board="forged", src_endpoint=0,
                                   dst_endpoint=0, handle=1,
                                   sender_region=42, offset=0, length=8192))
    assert cluster.nodes[0].driver.counters["pull_req_unknown_region"] == 1


def test_pull_reply_for_unknown_handle_dropped():
    cluster = build()
    inject(cluster, 0, PullReply(src_board="forged", src_endpoint=0,
                                 dst_endpoint=0, handle=77, offset=0,
                                 data=b"x" * 128))
    assert cluster.nodes[0].driver.counters["pull_reply_stale"] == 1


def test_notify_for_unknown_seq_dropped():
    cluster = build()
    inject(cluster, 0, Notify(src_board="forged", src_endpoint=0,
                              dst_endpoint=0, handle=1, sender_region=1,
                              seq=99))
    assert cluster.nodes[0].driver.counters["notify_stale"] == 1


def test_packet_to_unknown_endpoint_dropped():
    cluster = build()
    inject(cluster, 0, Notify(src_board="forged", src_endpoint=0,
                              dst_endpoint=9, handle=1, sender_region=1,
                              seq=1))
    assert cluster.nodes[0].driver.counters["rx_no_endpoint"] == 1


def test_non_omx_payload_counted_as_bogus():
    cluster = build()
    inject(cluster, 0, "not a packet")
    assert cluster.nodes[0].driver.counters["rx_bogus"] == 1


def test_duplicate_pull_reply_ignored():
    """A duplicated data frame (e.g. from a spurious re-request) must be
    counted once and not double-write or double-count progress."""
    cluster = build()
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 1 * MIB
    sbuf, rbuf = sp.malloc(n), rp.malloc(n)
    data = bytes(i % 77 for i in range(n))
    sp.write(sbuf, data)

    # Duplicate every 10th pull reply at the fabric.
    original_carry = cluster.fabric.carry
    counter = {"n": 0}

    def dup_carry(frame):
        original_carry(frame)
        if isinstance(frame.payload, PullReply):
            counter["n"] += 1
            if counter["n"] % 10 == 0:
                original_carry(frame)

    cluster.fabric.carry = dup_carry

    def sender():
        req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, n, 1)
        yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    assert rp.read(rbuf, n) == data
    assert cluster.nodes[1].driver.counters["pull_reply_duplicate"] >= 1


def test_late_replies_after_completion_are_stale():
    """Replies arriving after the pull completed (handle retired) are
    counted as stale and ignored."""
    cluster = build()
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 256 * KIB
    sbuf, rbuf = sp.malloc(n), rp.malloc(n)
    sp.write(sbuf, b"late" * (n // 4))

    def sender():
        req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, n, 1)
        yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    # Forge a late reply for the (now retired) handle 1.
    inject(cluster, 1, PullReply(src_board=cluster.lib(0).board,
                                 src_endpoint=0, dst_endpoint=0, handle=1,
                                 offset=0, data=b"x" * 64))
    assert cluster.nodes[1].driver.counters["pull_reply_stale"] == 1
    assert rp.read(rbuf, 4) == b"late"
