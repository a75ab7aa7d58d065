"""Shape check: the introduction's motivation (MPI-over-TCP vs Open-MX)."""

from repro.experiments.motivation import format_motivation


def test_motivation(sweep):
    (rows,) = sweep["motivation"]
    print()
    print(format_motivation(rows))
    by_stack = {(r.stack, r.mtu): r for r in rows}
    tcp1500 = by_stack[("MPI over TCP", 1500)]
    tcp9000 = by_stack[("MPI over TCP", 9000)]
    omx = by_stack[("Open-MX", 9000)]
    omx_ioat = by_stack[("Open-MX + I/OAT", 9000)]

    # "higher throughput": Open-MX beats TCP even at TCP's best (jumbo).
    assert omx.throughput_mib_s > tcp9000.throughput_mib_s
    assert omx_ioat.throughput_mib_s > omx.throughput_mib_s
    # At the commodity default MTU the gap is dramatic.
    assert tcp1500.throughput_mib_s < 0.5 * omx.throughput_mib_s
    # "lower CPU overhead": per received KiB, zero-copy send + single
    # (offloadable) receive copy beats TCP's two copies per side.
    assert omx.rx_cpu_ns_per_kb < tcp9000.rx_cpu_ns_per_kb
    assert omx_ioat.rx_cpu_ns_per_kb < 0.75 * tcp9000.rx_cpu_ns_per_kb
