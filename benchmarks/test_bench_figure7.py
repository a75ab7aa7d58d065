"""Shape check: Figure 7 (regular vs overlapped vs cache vs
overlapped+cache pinning)."""

from benchmarks.conftest import full_sweep
from repro.experiments.figures67 import (
    FAST_SIZES,
    FIGURE_SIZES,
    format_series_table,
)


def test_figure7(sweep):
    sizes = FIGURE_SIZES if full_sweep() else FAST_SIZES
    (series,) = sweep["figure7"]
    print()
    print(format_series_table(series, "Figure 7: IMB PingPong (MiB/s)"))
    regular, overlapped, cache, overlap_cache = series

    big = sizes[-1]
    # Both optimizations clearly beat regular pinning...
    assert overlapped.throughput_at(big) > regular.throughput_at(big)
    assert cache.throughput_at(big) > regular.throughput_at(big)
    assert overlap_cache.throughput_at(big) > regular.throughput_at(big)
    # ...and the improvement is the expected ~5% band on the Xeon E5460.
    gain_cache = cache.throughput_at(big) / regular.throughput_at(big) - 1
    gain_overlap = overlapped.throughput_at(big) / regular.throughput_at(big) - 1
    assert 0.03 < gain_cache < 0.12, gain_cache
    assert 0.02 < gain_overlap < 0.12, gain_overlap
    # The cache and overlap curves sit close together (within a few %).
    for size in sizes:
        ratio = overlapped.throughput_at(size) / cache.throughput_at(size)
        assert 0.85 < ratio <= 1.05, (size, ratio)
