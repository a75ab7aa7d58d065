"""Tracing and statistics collection for simulation runs.

A :class:`Tracer` collects timestamped records cheaply (appends to a ring
buffer).  Experiments use it to reconstruct protocol timelines (Figures
2/3/5 of the paper) and to assert ordering properties in tests.

By default a tracer is unbounded (small scripted scenarios stay exact);
pass ``capacity`` to keep only the most recent records — long simulations
then run with tracing enabled at constant memory (``dropped`` counts the
evicted records).  Structured metrics — registries, histograms, spans —
live in :mod:`repro.obs`; this module stays the lightweight event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.metrics import Histogram
from repro.obs.ring import RingBuffer

__all__ = ["TraceRecord", "Tracer", "summarize"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace point."""

    time: int
    source: str
    event: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:>12} ns] {self.source:<20} {self.event:<24} {extra}"


class Tracer:
    """Accumulates :class:`TraceRecord` entries; can be disabled for speed.

    ``capacity`` bounds memory with ring-buffer semantics (oldest records
    evicted first); ``None`` keeps every record.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        self.enabled = enabled
        self._ring = RingBuffer(capacity)

    @property
    def capacity(self) -> int | None:
        return self._ring.capacity

    @property
    def dropped(self) -> int:
        """Records evicted to honour ``capacity`` (0 while unbounded)."""
        return self._ring.dropped

    @property
    def records(self) -> list[TraceRecord]:
        """Retained records, oldest first."""
        return self._ring.to_list()

    def record(self, time: int, source: str, event: str, **detail: Any) -> None:
        if self.enabled:
            self._ring.append(TraceRecord(time, source, event, detail))

    def clear(self) -> None:
        self._ring.clear()

    def filter(self, source: str | None = None, event: str | None = None) -> list[TraceRecord]:
        """Records matching the given source and/or event name."""
        out = self.records
        if source is not None:
            out = [r for r in out if r.source == source]
        if event is not None:
            out = [r for r in out if r.event == event]
        return list(out)

    def first(self, event: str) -> TraceRecord | None:
        for r in self.records:
            if r.event == event:
                return r
        return None

    def last(self, event: str) -> TraceRecord | None:
        for r in reversed(self.records):
            if r.event == event:
                return r
        return None

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def render(self) -> str:
        return "\n".join(str(r) for r in self.records)


def summarize(samples: list[float]) -> dict[str, float]:
    """Mean / min / max / stddev / tail percentiles of a sample list.

    Percentiles (p50/p95/p99) come from :class:`repro.obs.metrics.Histogram`
    with every sample retained, i.e. exact nearest-rank values.  Empty-safe.
    """
    if not samples:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "std": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    hist = Histogram("summarize", sample_capacity=n)
    for s in samples:
        hist.observe(s)
    return {
        "n": n,
        "mean": mean,
        "min": min(samples),
        "max": max(samples),
        "std": math.sqrt(var),
        "p50": hist.percentile(50),
        "p95": hist.percentile(95),
        "p99": hist.percentile(99),
    }
