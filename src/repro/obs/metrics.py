"""Labeled metric registry: counters, gauges and log2-bucketed histograms.

This is the repro's central instrumentation substrate.  Every simulated
layer (NIC, softirq engine, pin service, Open-MX driver, sim engine)
registers its metrics here; exporters (:mod:`repro.obs.export`) snapshot a
registry into JSON / CSV / Prometheus text, and ``python -m repro.obs``
renders a snapshot as tables.

Design notes
------------
* A metric is a *family*: ``registry.counter("nic_rx_frames",
  labelnames=("nic",))`` returns the family; ``family.labels(nic="host0/nic0")``
  returns (creating on demand) the child that actually holds the value.
  Families declared with no label names proxy straight to their single
  anonymous child, so ``registry.counter("x").inc()`` just works.
* A count is stored once, by its owner: ``family.cell(nic="host0/nic0")``
  hands the owner its own :class:`Cell`, and the family sums every cell
  under a label set into that set's one sample.  :class:`Counters` is an
  owner's named set of cells.
* Histograms bucket observations by powers of two (``v`` lands in the
  bucket with upper bound ``2**v.bit_length()``), which matches the
  nanosecond latencies this repo measures across six orders of magnitude.
  Percentiles are answered from the buckets by linear interpolation; a
  histogram created with ``sample_capacity > 0`` additionally retains a
  bounded ring of raw observations and answers *exactly* while no sample
  has been evicted.
* A registry built with ``enabled=False`` hands out shared no-op metrics:
  instrumented hot paths pay one attribute call and nothing else.  Its
  ``cell()`` returns a fresh unattached cell, so owners still count when
  nobody collects.
* ``use_registry(reg)`` installs a process-wide default registry;
  ``resolve_registry(None)`` returns the installed one (or a fresh private
  registry when none is installed).  ``build_cluster`` and the experiment
  CLI use this so one ``--metrics`` flag captures every cluster an
  experiment builds, while unit tests stay isolated by default.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

from repro.obs.ring import RingBuffer

__all__ = [
    "Cell",
    "Counter",
    "Counters",
    "GAUGE_MERGE_MODES",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "current_registry",
    "resolve_registry",
    "use_registry",
]


def _label_key(labelnames: tuple[str, ...], kv: dict[str, str]) -> tuple[str, ...]:
    if set(kv) != set(labelnames):
        raise ValueError(
            f"labels {sorted(kv)} do not match declared names {sorted(labelnames)}"
        )
    return tuple(str(kv[name]) for name in labelnames)


class _Family:
    """Shared machinery: child management and snapshotting."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def _new_child(self) -> Any:  # pragma: no cover - subclasses override
        raise NotImplementedError

    def labels(self, **kv: str) -> Any:
        key = _label_key(self.labelnames, kv)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    @property
    def _default(self) -> Any:
        child = self._children.get(())
        if child is None:
            if self.labelnames:
                raise ValueError(
                    f"metric {self.name} has labels {self.labelnames}; "
                    "use .labels(...)"
                )
            child = self._children[()] = self._new_child()
        return child

    def children(self) -> Iterator[tuple[dict[str, str], Any]]:
        for key, child in self._children.items():
            yield dict(zip(self.labelnames, key)), child

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": [
                {"labels": labels, **child.sample()}
                for labels, child in self.children()
            ],
        }


class Cell:
    """One owner's share of a counter sample.

    The owner bumps ``value`` in place (``cell.value += n``) and reads it
    back; the family it came from sums it with every other cell under the
    same labels.  Only owners write a cell, and only upward.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class _CounterChild:
    """One label set's sample: the sum of every cell handed out under it.

    ``cells[0]`` backs :meth:`inc`; :meth:`Counter.cell` appends the rest.
    """

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells = [Cell()]

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.cells[0].value += amount

    @property
    def value(self) -> int | float:
        return sum(cell.value for cell in self.cells)

    def sample(self) -> dict[str, Any]:
        return {"value": self.value}


class Counter(_Family):
    """Monotonically increasing count (events, bytes, misses...)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: int | float = 1) -> None:
        self._default.inc(amount)

    def cell(self, **labels: str) -> Cell:
        """A fresh cell for one owner, summed into ``labels``' sample."""
        cell = Cell()
        self.labels(**labels).cells.append(cell)
        return cell

    @property
    def value(self) -> int | float:
        """Sum over every label combination."""
        return sum(c.value for c in self._children.values())


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def sample(self) -> dict[str, Any]:
        return {"value": self.value}


#: Valid gauge merge policies (see :meth:`MetricRegistry.merge`).
GAUGE_MERGE_MODES = ("last", "sum", "max")


class Gauge(_Family):
    """A value that goes up and down (pinned pages, queue depth...).

    ``merge`` declares how :meth:`MetricRegistry.merge` folds this gauge
    when aggregating worker registries from a multi-process run:

    * ``"last"`` (default) — the merged-in value overwrites; right for
      "most recent observation" gauges where workers describe the same
      object (the historical behavior).
    * ``"sum"`` — values add; right for per-worker quantities that are
      disjoint shares of a whole (pending events per shard environment,
      per-engine events/sec of concurrently running engines).
    * ``"max"`` — the merged value is the maximum seen; right for
      high-water marks.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (), merge: str | None = None):
        super().__init__(name, help, labelnames)
        if merge is None:
            merge = "last"
        if merge not in GAUGE_MERGE_MODES:
            raise ValueError(
                f"gauge merge policy must be one of {GAUGE_MERGE_MODES}, "
                f"got {merge!r}")
        self.merge_mode = merge

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: int | float) -> None:
        self._default.set(value)

    def inc(self, amount: int | float = 1) -> None:
        self._default.inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        self._default.dec(amount)

    @property
    def value(self) -> int | float:
        return self._default.value


def _bucket_bound(value: int) -> int:
    """Upper bound of the log2 bucket containing ``value`` (>= 1)."""
    v = int(value)
    if v <= 1:
        return 1
    return 1 << (v - 1).bit_length()


class _HistogramChild:
    __slots__ = ("buckets", "count", "sum", "min", "max", "_raw")

    def __init__(self, sample_capacity: int = 0):
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: int | float | None = None
        self.max: int | float | None = None
        self._raw: RingBuffer | None = (
            RingBuffer(sample_capacity) if sample_capacity else None
        )

    def observe(self, value: int | float) -> None:
        if value < 0:
            value = 0
        bound = _bucket_bound(int(value))
        self.buckets[bound] = self.buckets.get(bound, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._raw is not None:
            self._raw.append(value)

    @property
    def raw_samples(self) -> list[int | float]:
        """Retained raw observations (bounded; may be a suffix of history)."""
        return self._raw.to_list() if self._raw is not None else []

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100).

        Exact (nearest-rank on the raw samples) while every observation is
        still retained; otherwise estimated from the log2 buckets by linear
        interpolation, clamped to the observed min/max.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        if self._raw is not None and self._raw.dropped == 0:
            ordered = sorted(self._raw.to_list())
            rank = max(1, -(-self.count * p // 100))  # ceil, nearest-rank
            return float(ordered[int(rank) - 1])
        target = max(1, -(-self.count * p // 100))
        cumulative = 0
        for bound in sorted(self.buckets):
            n = self.buckets[bound]
            if cumulative + n >= target:
                lo = bound // 2 if bound > 1 else 0
                frac = (target - cumulative) / n
                estimate = lo + (bound - lo) * frac
                return float(min(max(estimate, self.min), self.max))
            cumulative += n
        return float(self.max)  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """The summarize()-shaped digest plus tail percentiles."""
        return {
            "n": self.count,
            "mean": self.mean,
            "min": float(self.min) if self.count else 0.0,
            "max": float(self.max) if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def sample(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0,
            "max": self.max if self.count else 0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


class Histogram(_Family):
    """Log2-bucketed distribution with percentile queries."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (), sample_capacity: int = 0):
        super().__init__(name, help, labelnames)
        self.sample_capacity = sample_capacity

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.sample_capacity)

    def observe(self, value: int | float) -> None:
        self._default.observe(value)

    def percentile(self, p: float) -> float:
        return self._default.percentile(p)

    def summary(self) -> dict[str, float]:
        return self._default.summary()

    @property
    def count(self) -> int:
        return sum(c.count for c in self._children.values())


class _NullMetric:
    """Absorbs every metric call; handed out by disabled registries."""

    def labels(self, **kv: str) -> "_NullMetric":
        return self

    def cell(self, **kv: str) -> Cell:
        return Cell()

    def inc(self, amount: int | float = 1) -> None:
        pass

    def dec(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}

    @property
    def value(self) -> int:
        return 0

    count = value
    raw_samples: list = []


_NULL_METRIC = _NullMetric()


class MetricRegistry:
    """Creates, deduplicates and snapshots metric families."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, _Family] = {}

    # -- factories ----------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: tuple[str, ...], **kwargs: Any) -> Any:
        if not self.enabled:
            return _NULL_METRIC
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            if existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, requested {tuple(labelnames)}"
                )
            requested_merge = kwargs.get("merge")
            if (requested_merge is not None and isinstance(existing, Gauge)
                    and requested_merge != existing.merge_mode):
                raise ValueError(
                    f"gauge {name!r} already registered with merge="
                    f"{existing.merge_mode!r}, requested {requested_merge!r}"
                )
            return existing
        metric = cls(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = (),
              merge: str | None = None) -> Gauge:
        """Get or create a gauge.

        ``merge`` picks the aggregation policy (:data:`GAUGE_MERGE_MODES`)
        applied by :meth:`merge`; ``None`` keeps an existing gauge's policy
        (or defaults a new one to ``"last"``).  Re-registering with a
        *different* explicit policy raises, like a labelname mismatch.
        """
        return self._get_or_create(Gauge, name, help, labelnames, merge=merge)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  sample_capacity: int = 0) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   sample_capacity=sample_capacity)

    # -- access --------------------------------------------------------------
    def get(self, name: str) -> _Family | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[_Family]:
        return iter(self._metrics.values())

    def reset(self) -> None:
        """Forget every metric (a fresh slate, same registrations welcome)."""
        self._metrics.clear()

    # -- aggregation -----------------------------------------------------------
    def merge(self, other: "MetricRegistry") -> None:
        """Fold another registry's values into this one.

        Counters add; gauges follow their declared merge policy (``"last"``
        overwrites, ``"sum"`` adds, ``"max"`` keeps the high-water mark —
        see :class:`Gauge`); histograms merge bucket-by-bucket.
        Experiments use this to run on a private registry (exact per-run
        percentiles) and still contribute to the session-wide snapshot the
        CLI exports; multi-environment runs (parallel fan-out, PDES shards)
        rely on the per-gauge policy so per-engine gauges aggregate instead
        of the last worker overwriting every other engine's value.
        """
        if not self.enabled:
            return
        for theirs in other:
            cls = type(theirs)
            kwargs: dict[str, Any] = {}
            if isinstance(theirs, Histogram):
                kwargs["sample_capacity"] = theirs.sample_capacity
            elif isinstance(theirs, Gauge):
                kwargs["merge"] = getattr(theirs, "merge_mode", None)
            mine = self._get_or_create(cls, theirs.name, theirs.help,
                                       theirs.labelnames, **kwargs)
            for labels, child in theirs.children():
                fresh = _label_key(mine.labelnames, labels) not in mine._children
                target = mine.labels(**labels)
                if isinstance(theirs, Counter):
                    target.inc(child.value)
                elif isinstance(theirs, Gauge):
                    mode = mine.merge_mode
                    if mode == "sum":
                        target.set(target.value + child.value)
                    elif mode == "max" and not fresh:
                        if child.value > target.value:
                            target.set(child.value)
                    else:
                        target.set(child.value)
                else:
                    target.count += child.count
                    target.sum += child.sum
                    if child.count:
                        if target.min is None or child.min < target.min:
                            target.min = child.min
                        if target.max is None or child.max > target.max:
                            target.max = child.max
                    for bound, n in child.buckets.items():
                        target.buckets[bound] = target.buckets.get(bound, 0) + n
                    if target._raw is not None:
                        for v in child.raw_samples:
                            target._raw.append(v)

    # -- snapshot ----------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of every metric (schema-tagged for exporters)."""
        return {
            "schema": "repro.obs/v1",
            "metrics": {name: fam.snapshot()
                        for name, fam in sorted(self._metrics.items())},
        }


class Counters:
    """One owner's named counts, each held in its own counter cell.

    ``incr("foo")`` bumps this owner's cell of the counter family
    ``<prefix>foo``, labeled with ``labels``; the family is registered on
    the first ``incr`` of a name, so a name never counted never appears in
    a snapshot.  Reads (``counters["foo"]``, :meth:`as_dict`) return this
    owner's counts only, however many owners share the registry.  Without
    a registry the cells are unattached: the owner counts, nobody collects.
    """

    def __init__(self, registry: MetricRegistry | None = None,
                 prefix: str = "", **labels: str):
        self._registry = registry if registry is not None else _UNCOLLECTED
        self._prefix = prefix
        self._labels = labels
        self._cells: dict[str, Cell] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = self._registry.counter(
                self._prefix + name, labelnames=tuple(self._labels),
            ).cell(**self._labels)
        cell.value += amount

    def __getitem__(self, name: str) -> int:
        cell = self._cells.get(name)
        return cell.value if cell is not None else 0

    def as_dict(self) -> dict[str, int]:
        return {name: cell.value for name, cell in self._cells.items()}

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe ratio of two counts (0.0 when the denominator is zero)."""
        den = self[denominator]
        return self[numerator] / den if den else 0.0


_UNCOLLECTED = MetricRegistry(enabled=False)


# -- process-wide default registry plumbing -----------------------------------

_ACTIVE: MetricRegistry | None = None


def current_registry() -> MetricRegistry | None:
    """The registry installed by :func:`use_registry`, if any."""
    return _ACTIVE


@contextlib.contextmanager
def use_registry(registry: MetricRegistry):
    """Install ``registry`` as the process default for the ``with`` body."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


def resolve_registry(explicit: MetricRegistry | None) -> MetricRegistry:
    """Pick the registry to instrument against.

    Explicit argument wins; otherwise the installed default; otherwise a
    fresh private registry (keeps unit tests and ad-hoc components isolated).
    """
    if explicit is not None:
        return explicit
    if _ACTIVE is not None:
        return _ACTIVE
    return MetricRegistry()
