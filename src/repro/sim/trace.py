"""Sample summaries for simulation runs.

Protocol timelines (Figures 2/3/5 of the paper) are recorded as marks and
spans by :class:`repro.obs.spans.SpanTracker`; structured metrics live in
:mod:`repro.obs`.
"""

from __future__ import annotations

import math

from repro.obs.metrics import Histogram

__all__ = ["summarize"]


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
