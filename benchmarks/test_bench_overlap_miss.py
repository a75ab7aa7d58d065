"""Shape check: the Section 4.3 overlap-miss study."""


def test_miss_probability_under_regular_load(sweep):
    result, _ = sweep["overlap-miss"]
    print(f"\noverlap misses: {result.overlap_misses} / "
          f"{result.data_packets} packets (rate {result.miss_rate:.2e})")
    # Paper: less than 1 packet out of 10000.
    assert result.data_packets > 5_000
    assert result.miss_rate < 1e-4


def test_overloaded_core_collapse(sweep):
    _, result = sweep["overlap-miss"]
    print(f"\nnormal: {result.normal_mib_s:.0f} MiB/s, overloaded: "
          f"{result.overloaded_mib_s:.1f} MiB/s "
          f"(x{result.slowdown:.0f}), misses={result.overlap_misses}, "
          f"BH core {result.bh_core_utilization:.0%} busy")
    # Paper: 1 GB/s down to 50 MB/s (~20x).  Shape: an order of magnitude
    # or more, driven by actual overlap misses on a saturated core.
    assert result.slowdown > 8
    assert result.overlap_misses > 0
    assert result.bh_core_utilization > 0.9
