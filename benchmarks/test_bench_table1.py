"""Shape check: Table 1 (pinning overhead per CPU)."""

import pytest

from repro.experiments.table1 import format_table1

# Paper's Table 1, for shape assertions.
PAPER = {
    "Opteron 265": (4.2, 720, 5.5),
    "Opteron 8347": (2.2, 330, 12.0),
    "Xeon E5435": (2.3, 250, 16.0),
    "Xeon E5460": (1.3, 150, 26.5),
}


def test_table1(sweep):
    (rows,) = sweep["table1"]
    print()
    print(format_table1(rows))
    assert len(rows) == 4
    for row in rows:
        base_us, per_page_ns, gb_s = PAPER[row.cpu]
        # The measured fit must recover the paper's constants closely.
        assert row.base_us == pytest.approx(base_us, rel=0.15)
        assert row.per_page_ns == pytest.approx(per_page_ns, rel=0.05)
        assert row.throughput_gb_s == pytest.approx(gb_s, rel=0.15)
    # Monotonicity: faster clocks pin faster.
    ordered = sorted(rows, key=lambda r: r.ghz)
    throughputs = [r.throughput_gb_s for r in ordered]
    assert throughputs == sorted(throughputs)
