"""Span tracker: parent links, tree rendering, bounded retention."""

from repro.obs.spans import SpanTracker, render_span_tree


def test_span_tree_parent_links_and_durations():
    t = SpanTracker()
    root = t.begin("rndv", 0, side="send")
    pin = t.begin("pin", 10, parent=root)
    t.end(pin, 40)
    pull = t.begin("pull[0]", 50, parent=root)
    t.end(pull, 90)
    t.end(root, 100, status="ok")
    assert pin.duration_ns == 30
    assert root.duration_ns == 100
    assert root.attrs["status"] == "ok"
    assert t.roots() == [root]
    assert t.children(root) == [pin, pull]


def test_end_is_idempotent_and_open_spans_report_none():
    t = SpanTracker()
    s = t.begin("x", 5)
    assert s.open and s.duration_ns is None
    t.end(s, 10)
    t.end(s, 99)  # second end ignored
    assert s.end_ns == 10


def test_disabled_tracker_returns_null_span():
    t = SpanTracker(enabled=False)
    s = t.begin("x", 0)
    assert s.id < 0
    t.end(s, 10)  # no-op, no crash
    t.mark(0, "src", "evt")
    assert len(t) == 0
    # A child begun later under a null parent becomes a root.
    t.enabled = True
    child = t.begin("y", 1, parent=s)
    assert child.parent_id is None


def test_marks_share_the_ring_but_stay_out_of_the_trees():
    t = SpanTracker()
    t.mark(5, "a/ep0", "send_rndv", seq=1)
    pin = t.begin("pin", 5, source="a")
    t.end(pin, 5)  # a phase may close at the instant it opened
    t.mark(5, "b/ep0", "recv_pinned", handle=2)
    assert len(t) == 3
    assert len({s.id for s in t}) == 3
    first, second = t.marks()
    assert (first.start_ns, first.end_ns, first.source, first.name,
            first.attrs) == (5, 5, "a/ep0", "send_rndv", {"seq": 1})
    assert second.name == "recv_pinned"
    assert t.spans() == [pin] and not pin.mark and pin.duration_ns == 0
    assert t.roots() == [pin]
    assert "send_rndv" not in t.render_tree()


def test_bounded_ring_evicts_old_spans_and_counts_them():
    t = SpanTracker(capacity=3)
    spans = [t.begin(f"s{i}", i) for i in range(6)]
    assert len(t) == 3
    assert t.dropped == 3
    assert [s.name for s in t.to_list()] == ["s3", "s4", "s5"]
    # Children whose parent was evicted render as roots, not crash.
    child = t.begin("child", 10, parent=spans[0])
    assert child in t.roots()


def test_render_tree_indents_children():
    t = SpanTracker()
    root = t.begin("rndv", 0)
    pin = t.begin("pin", 1, parent=root)
    t.end(pin, 5)
    t.end(root, 9)
    text = t.render_tree()
    lines = text.splitlines()
    assert lines[0].startswith("rndv")
    assert lines[1].startswith("  pin")
    assert "4 ns" in lines[1]  # pin duration


def test_render_span_tree_reports_truncation():
    t = SpanTracker(capacity=2)
    for i in range(4):
        t.begin(f"s{i}", i)
    text = render_span_tree(t.to_list(), dropped=t.dropped)
    assert "2 older spans evicted" in text
