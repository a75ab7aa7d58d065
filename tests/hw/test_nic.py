"""Unit tests for the NIC model: serialization, rings, full duplex."""

import pytest

from repro.cluster.network import Fabric
from repro.hw import MYRI_10G, XEON_E5460, EthernetFrame, Host, Nic, NicSpec
from repro.sim import Environment
from repro.util.units import transfer_time_ns


def wired_pair(nic_spec=MYRI_10G, latency=1_000):
    env = Environment()
    a = Nic(env, nic_spec, "a")
    b = Nic(env, nic_spec, "b")
    fabric = Fabric(env, latency_ns=latency)
    fabric.attach(a)
    fabric.attach(b)
    return env, a, b, fabric


def frame(src, dst, nbytes, payload="p"):
    return EthernetFrame(src=src, dst=dst, ethertype=0x1234, payload=payload,
                         payload_bytes=nbytes)


def test_wire_serialization_time():
    env, a, b, _ = wired_pair()
    arrivals = []
    b.set_rx_callback(lambda: arrivals.append(env.now))
    a.send(frame("a", "b", 8192))
    env.run()
    expected = transfer_time_ns(8192 + 42, MYRI_10G.link_bytes_per_sec) + 1_000
    assert arrivals == [expected]
    assert a.tx_frames.value == 1 and b.rx_frames.value == 1
    assert b.ring_pop().payload == "p"


def test_tx_serializes_back_to_back_frames():
    env, a, b, _ = wired_pair()
    arrivals = []
    b.set_rx_callback(lambda: arrivals.append(env.now))
    for _ in range(3):
        a.send(frame("a", "b", 8192))
    env.run()
    gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
    per_frame = transfer_time_ns(8234, MYRI_10G.link_bytes_per_sec)
    assert all(g == per_frame for g in gaps)


def test_full_duplex_does_not_serialize_directions():
    env, a, b, _ = wired_pair()
    done = []
    a.set_rx_callback(lambda: done.append(("a", env.now)))
    b.set_rx_callback(lambda: done.append(("b", env.now)))
    a.send(frame("a", "b", 8192))
    b.send(frame("b", "a", 8192))
    env.run()
    # Both arrive at the same time: TX queues are independent.
    assert done[0][1] == done[1][1]


def test_rx_ring_overflow_drops():
    spec = NicSpec(rx_ring_entries=4)
    env, a, b, _ = wired_pair(nic_spec=spec)
    for _ in range(8):
        a.send(frame("a", "b", 1000))
    env.run()  # nobody drains the ring
    assert b.rx_frames.value == 4
    assert b.rx_ring_drops.value == 4


def test_oversize_frame_rejected():
    env, a, b, _ = wired_pair()
    a.send(frame("a", "b", MYRI_10G.mtu + 1))
    with pytest.raises(ValueError, match="MTU"):
        env.run()


def test_unattached_nic_cannot_send():
    env = Environment()
    lone = Nic(env, MYRI_10G, "lone")
    lone.send(frame("lone", "x", 100))
    with pytest.raises(RuntimeError, match="not connected"):
        env.run()


def test_double_link_attach_rejected():
    env, a, b, fabric = wired_pair()
    with pytest.raises(RuntimeError, match="already attached"):
        fabric2 = Fabric(env)
        fabric2.attach(a)


def test_duplicate_address_rejected():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach(Nic(env, MYRI_10G, "same"))
    with pytest.raises(ValueError, match="duplicate"):
        fabric.attach(Nic(env, MYRI_10G, "same"))


def test_ring_pop_empty_returns_none():
    env, a, b, _ = wired_pair()
    assert b.ring_pop() is None
    assert b.ring_pop_peek_empty()


def test_burst_exit_times_are_closed_form():
    # The TX pump drains its queue with one timer per frame and no
    # process: a mixed-size burst queued in one instant must exit at
    # exactly t0 + cumulative serialization time, frame by frame.
    env, a, b, _ = wired_pair()
    arrivals = []
    b.set_rx_callback(lambda: arrivals.append(env.now))
    sizes = [512, 8192, 64, 4096]
    for n in sizes:
        a.send(frame("a", "b", n))
    env.run()
    expected, exit_ns = [], 0
    for n in sizes:
        exit_ns += transfer_time_ns(n + 42, MYRI_10G.link_bytes_per_sec)
        expected.append(exit_ns + 1_000)
    assert arrivals == expected


def test_send_while_pump_busy_extends_the_queue():
    # A frame queued mid-serialization starts on the wire the instant the
    # previous one exits — identical to the seed per-frame Resource path.
    env, a, b, _ = wired_pair()
    arrivals = []
    b.set_rx_callback(lambda: arrivals.append(env.now))
    per_frame = transfer_time_ns(8192 + 42, MYRI_10G.link_bytes_per_sec)

    def staggered():
        a.send(frame("a", "b", 8192))
        yield env.timeout(per_frame // 2)  # first frame still serializing
        a.send(frame("a", "b", 8192))
        yield env.timeout(2 * per_frame)   # pump has gone idle
        a.send(frame("a", "b", 8192))

    env.process(staggered())
    env.run()
    base = per_frame + 1_000
    assert arrivals == [base, base + per_frame,
                        per_frame // 2 + 2 * per_frame + per_frame + 1_000]


def test_tx_stamps_monotonic_sequence_numbers():
    env, a, b, _ = wired_pair()
    for _ in range(3):
        a.send(frame("a", "b", 1000))
    env.run()
    seqs = []
    while True:
        f = b.ring_pop()
        if f is None:
            break
        seqs.append(f.seq)
    assert seqs == [1, 2, 3]
    assert a._txseq == 3
