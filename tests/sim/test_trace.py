"""Unit tests for tracing and sample summaries."""

from repro.sim import Tracer, summarize


def test_tracer_records_and_filters():
    tr = Tracer()
    tr.record(10, "nic0", "tx", size=100)
    tr.record(20, "nic0", "rx", size=100)
    tr.record(30, "nic1", "tx", size=5)
    assert len(tr) == 3
    assert [r.time for r in tr.filter(source="nic0")] == [10, 20]
    assert tr.filter(event="tx")[-1].detail["size"] == 5
    assert tr.first("rx").time == 20
    assert tr.last("tx").time == 30


def test_tracer_disabled_records_nothing():
    tr = Tracer(enabled=False)
    tr.record(1, "x", "y")
    assert len(tr) == 0


def test_tracer_render_and_clear():
    tr = Tracer()
    tr.record(5, "src", "evt", k=1)
    text = tr.render()
    assert "src" in text and "evt" in text and "k=1" in text
    tr.clear()
    assert len(tr) == 0
    assert tr.first("evt") is None
    assert tr.last("evt") is None


def test_summarize_empty_and_nonempty():
    assert summarize([])["n"] == 0
    s = summarize([1.0, 2.0, 3.0])
    assert s["n"] == 3
    assert s["mean"] == 2.0
    assert s["min"] == 1.0
    assert s["max"] == 3.0
    assert abs(s["std"] - (2 / 3) ** 0.5) < 1e-12
