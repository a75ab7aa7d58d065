"""Unit tests for sample summaries."""

from repro.sim import summarize


def test_summarize_empty_and_nonempty():
    assert summarize([])["n"] == 0
    s = summarize([1.0, 2.0, 3.0])
    assert s["n"] == 3
    assert s["mean"] == 2.0
    assert s["min"] == 1.0
    assert s["max"] == 3.0
    assert abs(s["std"] - (2 / 3) ** 0.5) < 1e-12
