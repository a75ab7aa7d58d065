"""Begin/end spans with parent links — protocol phases as a tree.

One rendezvous transfer becomes a small tree of timed spans::

    rndv seq=3                      [   0 ..  92_000 ns]
      pin                           [ 120 ..  41_000 ns]
      pull[0]                       [ 450 ..  30_200 ns]
      pull[1]                       [ 900 ..  61_800 ns]
      notify                        [88_000 .. 92_000 ns]

The same stream holds *marks*: point events (``send_rndv``,
``recv_pinned``, ...) that open and close at one instant, in the order
they were recorded.  One tracker serves a whole cluster, so span ids are
unique per cluster and marks from every host interleave in execution
order.  Entries live in one bounded ring
(:class:`repro.obs.ring.RingBuffer`), so long traced runs stay at constant
memory; the tracker counts evictions so a truncated stream is detectable.

Timestamps are supplied by the caller (simulated nanoseconds) — the tracker
never reads a wall clock, keeping simulation determinism intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.ring import RingBuffer

__all__ = ["Span", "SpanTracker", "render_span_tree"]


@dataclass
class Span:
    """One timed phase; ``end_ns`` is None while the phase is open.

    ``mark`` flags a point event.  Duration cannot tell the two apart: a
    phase (a ``pin`` that found its pages resident) may close at the
    instant it opened.
    """

    id: int
    name: str
    start_ns: int
    parent_id: int | None = None
    end_ns: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    source: str = ""
    mark: bool = False

    @property
    def open(self) -> bool:
        return self.end_ns is None

    @property
    def duration_ns(self) -> int | None:
        return None if self.end_ns is None else self.end_ns - self.start_ns

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        end = "..." if self.end_ns is None else f"{self.end_ns}"
        return f"{self.name} [{self.start_ns} .. {end} ns] {extra}".rstrip()


# A shared sentinel handed out while tracking is disabled, so call sites can
# unconditionally pass spans around without None checks.
_NULL_SPAN = Span(id=-1, name="", start_ns=0)


class SpanTracker:
    """Collects spans and marks into one ring; renders spans as a tree.

    ``capacity`` bounds the whole stream, marks and spans together (oldest
    evicted first); ``None`` keeps every entry.
    """

    def __init__(self, capacity: int | None = None, enabled: bool = True):
        self.enabled = enabled
        self._ring = RingBuffer(capacity)
        self._next_id = 0

    # -- recording ----------------------------------------------------------
    def begin(self, name: str, time_ns: int,
              parent: "Span | int | None" = None, source: str = "",
              **attrs: Any) -> Span:
        if not self.enabled:
            return _NULL_SPAN
        parent_id = parent.id if isinstance(parent, Span) else parent
        if parent_id is not None and parent_id < 0:
            parent_id = None  # parent recorded while tracking was off
        self._next_id += 1
        span = Span(id=self._next_id, name=name, start_ns=time_ns,
                    parent_id=parent_id, attrs=attrs, source=source)
        self._ring.append(span)
        return span

    def mark(self, time_ns: int, source: str, name: str, **attrs: Any) -> None:
        """Record a point event at ``time_ns``."""
        if self.enabled:
            self._next_id += 1
            self._ring.append(Span(id=self._next_id, name=name,
                                   start_ns=time_ns, end_ns=time_ns,
                                   attrs=attrs, source=source, mark=True))

    def end(self, span: Span, time_ns: int, **attrs: Any) -> None:
        if not self.enabled or span.id < 0 or span.end_ns is not None:
            return
        span.end_ns = time_ns
        if attrs:
            span.attrs.update(attrs)

    # -- access --------------------------------------------------------------
    @property
    def dropped(self) -> int:
        return self._ring.dropped

    def to_list(self) -> list[Span]:
        """The whole retained stream, marks and spans, oldest first."""
        return self._ring.to_list()

    def marks(self) -> list[Span]:
        """Retained marks in record order."""
        return [s for s in self._ring.to_list() if s.mark]

    def spans(self) -> list[Span]:
        """Retained spans (not marks) in start order."""
        return [s for s in self._ring.to_list() if not s.mark]

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._ring)

    def roots(self) -> list[Span]:
        """Spans with no (retained) parent, in start order."""
        spans = self.spans()
        retained = {s.id for s in spans}
        return [s for s in spans
                if s.parent_id is None or s.parent_id not in retained]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans() if s.parent_id == span.id]

    def render_tree(self) -> str:
        """Indented text rendering of every span tree, oldest root first."""
        return render_span_tree(self.spans(), dropped=self.dropped)


def render_span_tree(spans, dropped: int = 0) -> str:
    """Indented text rendering of span trees from one tracker's spans.

    Spans whose parent was evicted (or recorded while tracking was off)
    render as roots.  ``dropped`` appends a truncation marker.
    """
    spans = list(spans)
    by_parent: dict[int | None, list[Span]] = {}
    retained = {s.id for s in spans}
    for s in spans:
        key = s.parent_id if s.parent_id in retained else None
        by_parent.setdefault(key, []).append(s)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        dur = span.duration_ns
        dur_s = f"{dur:>10} ns" if dur is not None else "      open"
        extra = " ".join(f"{k}={v}" for k, v in span.attrs.items())
        lines.append(
            f"{'  ' * depth}{span.name:<24} start={span.start_ns:>10}  "
            f"{dur_s}  {extra}".rstrip()
        )
        for child in by_parent.get(span.id, []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    if dropped:
        lines.append(f"... ({dropped} older spans evicted)")
    return "\n".join(lines)
