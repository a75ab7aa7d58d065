"""Shape tests for the Figure 6/7 experiments at reduced size counts."""

import pytest

from repro.experiments.figures67 import PingpongSeries, pingpong_point
from repro.hw import OPTERON_265, XEON_E5460
from repro.openmx import PinningMode
from repro.util.units import MIB


SIZES = [1 * MIB, 8 * MIB]


def curve(mode, sizes=SIZES, cpu=XEON_E5460):
    """One curve of ``mode`` without I/OAT, a fresh cluster per point."""
    return PingpongSeries(mode.value, tuple(
        pingpong_point(mode, False, nbytes, cpu) for nbytes in sizes))


def gap_at(cpu, size=8 * MIB):
    per_comm = curve(PinningMode.PIN_PER_COMM, cpu=cpu)
    permanent = curve(PinningMode.PERMANENT, cpu=cpu)
    return 1 - per_comm.throughput_at(size) / permanent.throughput_at(size)


def test_slow_cpu_pays_more():
    """Section 4.1: the pinning impact grows from ~5% on the fast Xeon to
    ~20% on the slow Opteron (same 10G network)."""
    fast = gap_at(XEON_E5460)
    slow = gap_at(OPTERON_265)
    assert 0.03 < fast < 0.12
    assert 0.15 < slow < 0.40
    assert slow > 2 * fast


def test_modes_ordering_holds_at_every_size():
    series = {
        mode: curve(mode)
        for mode in (PinningMode.PIN_PER_COMM, PinningMode.OVERLAP,
                     PinningMode.CACHE)
    }
    for size in SIZES:
        regular = series[PinningMode.PIN_PER_COMM].throughput_at(size)
        overlap = series[PinningMode.OVERLAP].throughput_at(size)
        cache = series[PinningMode.CACHE].throughput_at(size)
        assert regular < overlap <= cache * 1.01


def test_throughput_at_unknown_size_raises():
    s = curve(PinningMode.CACHE, [1 * MIB])
    with pytest.raises(KeyError):
        s.throughput_at(2 * MIB)
