"""Tests for the TCP baseline stack and its comparison with Open-MX."""

import pytest

from repro.baselines.tcp import TcpSegment, TcpStack
from repro.cluster import build_cluster
from repro.hw import slower_nic, MYRI_10G
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import KIB, MIB, throughput_mib_s


def build_tcp_pair(nic=MYRI_10G, **stack_kw):
    cluster = build_cluster(nic=nic)
    stacks = [TcpStack(node.kernel, **stack_kw) for node in cluster.nodes]
    a = stacks[0].open_socket(5000, cluster.nodes[1].host.nic.address, 5000)
    b = stacks[1].open_socket(5000, cluster.nodes[0].host.nic.address, 5000)
    return cluster, stacks, a, b


def stream_once(cluster, a, b, nbytes, data=None):
    env = cluster.env
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    payload = data if data is not None else bytes(i % 223 for i in range(nbytes))
    sp.write(sbuf, payload)
    marks = {}

    def sender():
        yield from a.send(sp, sbuf, nbytes)

    def receiver():
        t0 = env.now
        yield from b.recv(rp, rbuf, nbytes)
        marks["elapsed"] = env.now - t0

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    assert rp.read(rbuf, nbytes) == payload
    return marks["elapsed"]


def test_stream_delivers_exact_bytes():
    cluster, stacks, a, b = build_tcp_pair()
    stream_once(cluster, a, b, 1 * MIB)


@pytest.mark.parametrize("nbytes", [1, 100, 8 * KIB, 1 * MIB + 13])
def test_odd_sizes(nbytes):
    cluster, stacks, a, b = build_tcp_pair()
    stream_once(cluster, a, b, nbytes)


def test_exact_mss_multiple_does_not_deadlock_on_delayed_ack():
    cluster, stacks, a, b = build_tcp_pair()
    mss = stacks[0].mss
    elapsed = stream_once(cluster, a, b, 4 * mss)
    # The delayed-ack timer (500us) bounds the tail, not the 200ms RTO.
    assert elapsed < 5_000_000


def test_window_limits_inflight_bytes():
    cluster, stacks, a, b = build_tcp_pair(window_bytes=32 * KIB)
    elapsed_small_window = stream_once(cluster, a, b, 2 * MIB)
    cluster2, stacks2, a2, b2 = build_tcp_pair(window_bytes=1 * MIB)
    elapsed_big_window = stream_once(cluster2, a2, b2, 2 * MIB)
    # A 32 KiB window cannot keep a 10G pipe full.
    assert elapsed_small_window > 1.5 * elapsed_big_window


def test_acks_are_delayed():
    cluster, stacks, a, b = build_tcp_pair()
    stream_once(cluster, a, b, 1 * MIB)
    sent = stacks[0].counters["tcp_segments_sent"]
    acks = stacks[1].counters["tcp_acks_sent"]
    assert acks <= sent // 2 + 2  # roughly one ack per two segments


def test_retransmission_recovers_injected_loss():
    from repro.faults import DropNth

    cluster, stacks, a, b = build_tcp_pair(rto_ns=5_000_000)
    # Drop the third data segment once (a match may be any callable, here
    # filtering out pure acks).
    model = DropNth({3}, match=lambda f: (isinstance(f.payload, TcpSegment)
                                          and bool(f.payload.data)))
    cluster.fabric.add_fault_injector(model)
    stream_once(cluster, a, b, 256 * KIB)
    assert model.injected.value == 1
    assert stacks[0].counters["tcp_retransmit"] >= 1


def test_duplicate_port_rejected():
    cluster, stacks, a, b = build_tcp_pair()
    with pytest.raises(ValueError, match="in use"):
        stacks[0].open_socket(5000, "x", 1)


def test_segment_to_unknown_port_counted():
    cluster, stacks, a, b = build_tcp_pair()
    from repro.hw import EthernetFrame
    from repro.baselines.tcp import ETH_P_IP

    nic = cluster.nodes[0].host.nic
    seg = TcpSegment(src_board="forged", src_port=1, dst_port=9999, seq=0,
                     ack=0, data=b"x")
    nic.deliver(EthernetFrame(src="forged", dst=nic.address,
                              ethertype=ETH_P_IP, payload=seg,
                              payload_bytes=100))
    cluster.env.run(until=cluster.env.now + 100_000)
    assert stacks[0].counters["tcp_rx_no_port"] == 1


def test_open_mx_beats_tcp_on_jumbo_and_standard_mtu():
    """The paper's motivation: Open-MX outperforms the TCP path on the
    same wire, and by much more at the standard 1500-byte MTU."""
    from repro.workloads import imb_pingpong

    n = 8 * MIB
    results = {}
    for label, nic in (("jumbo", MYRI_10G), ("mtu1500", slower_nic(MYRI_10G, 10.0))):
        nic_spec = nic if label == "jumbo" else nic.__class__(
            name="Myri-10G/1500", link_bytes_per_sec=nic.link_bytes_per_sec,
            mtu=1500, frame_overhead_bytes=nic.frame_overhead_bytes,
            wire_latency_ns=nic.wire_latency_ns,
            rx_ring_entries=4096,
        )
        cluster, stacks, a, b = build_tcp_pair(nic=nic_spec,
                                               window_bytes=1 * MIB)
        elapsed = stream_once(cluster, a, b, n)
        results[f"tcp-{label}"] = throughput_mib_s(n, elapsed)

    omx = imb_pingpong(
        build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE)),
        n, iterations=2,
    )
    results["open-mx"] = omx.throughput_mib_s
    assert results["open-mx"] > results["tcp-jumbo"]
    assert results["tcp-jumbo"] > results["tcp-mtu1500"]
    # Standard-MTU TCP is far below the Open-MX level (the motivation).
    assert results["tcp-mtu1500"] < 0.75 * results["open-mx"]
