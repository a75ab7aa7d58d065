"""Shape check: Figure 6 (pingpong, pin-per-comm vs permanent,
with and without I/OAT)."""

from benchmarks.conftest import full_sweep
from repro.experiments.figures67 import (
    FAST_SIZES,
    FIGURE_SIZES,
    format_series_table,
)
from repro.util.units import MIB


def test_figure6(sweep):
    sizes = FIGURE_SIZES if full_sweep() else FAST_SIZES
    (series,) = sweep["figure6"]
    print()
    print(format_series_table(series, "Figure 6: IMB PingPong (MiB/s)"))
    per_comm, permanent, per_comm_ioat, permanent_ioat = series

    for size in sizes:
        # Permanent pinning always beats pin-per-communication.
        assert permanent.throughput_at(size) > per_comm.throughput_at(size)
        assert permanent_ioat.throughput_at(size) > per_comm_ioat.throughput_at(size)
        # I/OAT lifts throughput for the same pinning mode.
        assert permanent_ioat.throughput_at(size) > permanent.throughput_at(size)

    big = 16 * MIB if full_sweep() else sizes[-1]
    gap = 1 - per_comm.throughput_at(big) / permanent.throughput_at(big)
    # Paper: ~5% impact on the fast Xeon (we land in a 3-12% band).
    assert 0.03 < gap < 0.12, f"pinning impact {gap:.1%} out of band"
    # Curves rise with message size and peak around 1000-1200 MiB/s.
    peak = permanent_ioat.throughput_at(big)
    assert 1000 < peak < 1250, peak
    assert permanent.points[0][1] < permanent.points[-1][1]
