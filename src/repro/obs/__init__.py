"""repro.obs — the repro's observability subsystem.

* :mod:`repro.obs.metrics` — labeled :class:`MetricRegistry` with counters,
  gauges and log2-bucketed histograms (p50/p95/p99 queries); owners count
  in their own counter :class:`Cell` (or a named set, :class:`Counters`).
* :mod:`repro.obs.ring` — bounded ring buffer backing traces and spans.
* :mod:`repro.obs.spans` — begin/end spans with parent links (protocol
  phases as a tree).
* :mod:`repro.obs.export` — JSON / CSV / Prometheus snapshot exporters.
* ``python -m repro.obs SNAPSHOT.json`` — render a snapshot as tables.

See ``docs/observability.md`` for the metric catalogue and conventions.
"""

from repro.obs.export import (
    load_snapshot,
    snapshot_to_csv,
    snapshot_to_json,
    snapshot_to_prometheus,
    write_snapshot,
)
from repro.obs.metrics import (
    Cell,
    Counter,
    Counters,
    Gauge,
    Histogram,
    MetricRegistry,
    current_registry,
    resolve_registry,
    use_registry,
)
from repro.obs.ring import RingBuffer
from repro.obs.spans import Span, SpanTracker, render_span_tree

__all__ = [
    "Cell",
    "Counter",
    "Counters",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "RingBuffer",
    "Span",
    "SpanTracker",
    "current_registry",
    "load_snapshot",
    "render_span_tree",
    "resolve_registry",
    "snapshot_to_csv",
    "snapshot_to_json",
    "snapshot_to_prometheus",
    "use_registry",
    "write_snapshot",
]
