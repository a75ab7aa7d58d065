"""Shape check: ablations for the design choices (Section 5 discussion)."""


def test_pipeline_vs_driver_overlap(sweep):
    points, _, _ = sweep["ablations"]
    print()
    for p in points:
        print(f"  {p.label:32s} {p.value:8.1f} MiB/s")
    driver = points[-1]
    assert driver.label.startswith("driver-level")
    # The paper's whole-message overlap beats every realistic pipeline
    # chunk size (small chunks pay per-chunk handshakes; huge chunks lose
    # the overlap).
    for p in points[:-1]:
        assert driver.value > p.value, (p.label, p.value, driver.value)


def test_cache_capacity_hit_rate(sweep):
    _, points, _ = sweep["ablations"]
    print()
    for p in points:
        print(f"  {p.label:16s} hit rate {p.value:.2f}")
    rates = [p.value for p in points]
    # Hit rate grows with capacity and saturates once all buffers fit.
    assert rates == sorted(rates)
    assert rates[-1] > 0.4
    assert rates[0] < rates[-1]


def test_overlap_check_cost_negligible(sweep):
    _, _, points = sweep["ablations"]
    print()
    for p in points:
        print(f"  {p.label:16s} {p.value:8.1f} MiB/s")
    # Paper: the per-packet descriptor test at its real cost (~30 ns) is
    # negligible (<1%); only a 20x exaggeration makes it visible, and even
    # then it stays under 10%.
    base, realistic, exaggerated = points[0].value, points[1].value, points[-1].value
    assert (base - realistic) / base < 0.01
    assert (base - exaggerated) / base < 0.10
