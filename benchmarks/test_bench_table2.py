"""Shape check: Table 2 (IMB + NPB improvements, 2 nodes)."""

from repro.experiments.table2 import format_table2

# Paper's Table 2 for reference (cache %, overlap %).
PAPER = {
    "IMB SendRecv": (8.4, 5.5),
    "IMB Allgatherv": (7.5, 6.8),
    "IMB Broadcast": (4.4, 2.0),
    "IMB Reduce": (7.6, 0.2),
    "IMB Allreduce": (2.2, -0.6),
    "IMB Reduce_scatter": (7.9, -0.8),
    "IMB Exchange": (-1.4, -2.7),
    "NPB is (scaled C.4)": (4.2, 1.9),
}


def test_table2(sweep):
    # One size axis and the default scaled IS problem, quick or full.
    (rows,) = sweep["table2"]
    print()
    print(format_table2(rows))
    print("\nPaper's Table 2 for comparison:")
    for app, (c, o) in PAPER.items():
        print(f"  {app:22s} {c:+5.1f} %   {o:+5.1f} %")

    by_name = {r.application: r for r in rows}
    # Shape assertions (who wins, roughly by how much):
    # 1. The pinning cache helps every large-message collective here
    #    (the paper's one negative, Exchange, is within noise of zero).
    for name in ["IMB SendRecv", "IMB Allgatherv", "IMB Broadcast",
                 "IMB Reduce", "IMB Allreduce", "IMB Reduce_scatter"]:
        assert by_name[name].cache_improvement_pct > 0, name
        assert by_name[name].cache_improvement_pct < 15, name
    # 2. For the collectives, overlap's benefit never exceeds the cache's
    #    by more than a hair, and it is near zero (or negative) for the
    #    exchange-style patterns.  (IS is compute-laden and its ~1.5%
    #    signal sits near noise, so it is range-checked separately.)
    for r in rows:
        if r.application.startswith("IMB"):
            assert r.overlap_improvement_pct <= r.cache_improvement_pct + 1.5, r
    assert by_name["IMB Exchange"].overlap_improvement_pct < 2.5
    # 3. IS: both optimizations land in a small band around the paper's
    #    +4.2% / +1.9% (scaled problem -> smaller absolute signal).
    is_row = by_name["NPB is (scaled C.4)"]
    assert -2.0 < is_row.cache_improvement_pct < 8
    assert -2.0 < is_row.overlap_improvement_pct < 8
