"""Shape check: the buffer-reuse sweep (the paper's complementarity claim —
Sections 4.2/5: the cache needs reuse, overlap helps regardless)."""

from repro.experiments.reuse_sweep import format_reuse_sweep


def test_reuse_sweep(sweep):
    (rows,) = sweep["reuse-sweep"]
    print()
    print(format_reuse_sweep(rows))
    no_reuse, full_reuse = rows[0], rows[-1]
    # The cache's gain grows with reuse...
    gains = [r.cache_gain_pct for r in rows]
    assert gains == sorted(gains)
    assert full_reuse.cache_gain_pct > no_reuse.cache_gain_pct + 1.5
    # ...while overlap's gain is flat (within 1%) across the sweep...
    overlap_gains = [r.overlap_gain_pct for r in rows]
    assert max(overlap_gains) - min(overlap_gains) < 1.0
    # ...so overlap wins without reuse and the cache wins with full reuse.
    assert no_reuse.overlap_mib_s > no_reuse.cache_mib_s
    assert full_reuse.cache_mib_s > full_reuse.overlap_mib_s
    # Every strategy still beats regular pinning everywhere.
    for r in rows:
        assert r.cache_mib_s > r.regular_mib_s
        assert r.overlap_mib_s > r.regular_mib_s