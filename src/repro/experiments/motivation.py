"""The introduction's motivation, quantified: MPI-over-TCP vs Open-MX.

The paper's opening argument is that MPI over commodity Ethernet is
"limited by the TCP/IP stack which was not designed for this context",
which is why Open-MX re-implements the MX protocol directly on the
Ethernet layer.  This experiment runs a bulk transfer over both stacks on
the *same* simulated wire and reports throughput plus the receive-side CPU
cost per byte (TCP pays two copies per side and per-segment processing;
Open-MX pays one offloadable copy and amortizes its per-message costs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.tcp import TcpStack
from repro.cluster import build_cluster
from repro.hw import MYRI_10G, NicSpec
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB, throughput_mib_s

__all__ = ["MotivationRow", "run_motivation"]


@dataclass(frozen=True)
class MotivationRow:
    stack: str
    mtu: int
    throughput_mib_s: float
    rx_cpu_ns_per_kb: float


def _tcp_run(nbytes: int, mtu: int) -> MotivationRow:
    nic = NicSpec(name=f"10G/mtu{mtu}", mtu=mtu, rx_ring_entries=4096)
    cluster = build_cluster(nic=nic)
    stacks = [TcpStack(node.kernel, window_bytes=1 * MIB)
              for node in cluster.nodes]
    a = stacks[0].open_socket(5000, cluster.nodes[1].host.nic.address, 5000)
    b = stacks[1].open_socket(5000, cluster.nodes[0].host.nic.address, 5000)
    env = cluster.env
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, b"m" * nbytes)
    marks = {}

    def sender():
        yield from a.send(sp, sbuf, nbytes)

    def receiver():
        t0 = env.now
        yield from b.recv(rp, rbuf, nbytes)
        marks["elapsed"] = env.now - t0

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    rx_core_busy = (cluster.nodes[1].host.cores[0].utilization()
                    + cluster.nodes[1].host.cores[1].utilization())
    rx_cpu_ns = rx_core_busy * env.now
    return MotivationRow(
        stack="MPI over TCP", mtu=mtu,
        throughput_mib_s=throughput_mib_s(nbytes, marks["elapsed"]),
        rx_cpu_ns_per_kb=rx_cpu_ns / (nbytes / 1024),
    )


def _omx_run(nbytes: int, use_ioat: bool) -> MotivationRow:
    """One-way Open-MX stream, directly comparable to the TCP stream."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE,
                            use_ioat=use_ioat)
    )
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, b"m" * nbytes)
    marks = {}

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        t0 = env.now
        req = yield from r.irecv(rbuf, nbytes, 1)
        yield from r.wait(req)
        marks["elapsed"] = env.now - t0

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    rx_core_busy = (cluster.nodes[1].host.cores[0].utilization()
                    + cluster.nodes[1].host.cores[1].utilization())
    rx_cpu_ns = rx_core_busy * env.now
    label = "Open-MX + I/OAT" if use_ioat else "Open-MX"
    return MotivationRow(
        stack=label, mtu=MYRI_10G.mtu,
        throughput_mib_s=throughput_mib_s(nbytes, marks["elapsed"]),
        rx_cpu_ns_per_kb=rx_cpu_ns / (nbytes / 1024),
    )


def run_motivation(nbytes: int = 8 * MIB) -> list[MotivationRow]:
    return [
        _tcp_run(nbytes, mtu=1500),
        _tcp_run(nbytes, mtu=9000),
        _omx_run(nbytes, use_ioat=False),
        _omx_run(nbytes, use_ioat=True),
    ]


def format_motivation(rows: list[MotivationRow]) -> str:
    from repro.experiments.report import format_table

    return format_table(
        ["Stack", "MTU", "Throughput MiB/s", "RX CPU ns/KiB"],
        [
            [r.stack, r.mtu, f"{r.throughput_mib_s:.0f}",
             f"{r.rx_cpu_ns_per_kb:.0f}"]
            for r in rows
        ],
        title="Motivation: message passing over the same 10G Ethernet wire",
    )
