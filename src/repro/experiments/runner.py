"""The sweep's task list, its one run path, and result persistence.

:data:`SWEEP` maps every artifact of ``python -m repro.experiments`` to the
``(fn, kwargs)`` tasks it runs, and :func:`run_artifacts` runs any subset
of them in one pool: the CLI prints and saves what it returns, and the
shape checks in ``benchmarks/`` assert on it.

Experiments return frozen dataclasses; this module serializes any of them
to JSON (``save_results``/``load_results``).  The CLI's ``--json PATH``
flag uses it, and ``benchmarks/check_drift.py`` diffs two such files.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.experiments import (ablations, figures67, motivation, overlap_miss,
                               reuse_sweep, table1, table2)
from repro.experiments.parallel import Task, parallel_map
from repro.hw.specs import XEON_E5460

__all__ = ["SWEEP", "Artifact", "load_results", "run_artifacts",
           "save_results", "to_jsonable"]


class Artifact(NamedTuple):
    """One artifact: ``tasks(sizes)`` for a Figure 6/7 size axis, ``build``
    from their results (in task order) to the artifact's results, and
    ``show(*results)``, its printed block.  ``saves`` names the results
    ``--json`` records; an artifact that names none only prints."""

    tasks: Callable[[list[int]], list[Task]]
    build: Callable[[list[Any]], tuple]
    show: Callable[..., str]
    saves: tuple[str, ...]


def _blank_after(fmt: Callable[..., str]) -> Callable[..., str]:
    # Every block but the ablations' is followed by a blank line.
    return lambda *results: fmt(*results) + "\n"


def _one(fn: Callable, show: Callable[..., str], name: str) -> Artifact:
    return Artifact(lambda sizes: [(fn, {})], tuple, _blank_after(show),
                    (name,))


def _figure(name: str, specs, title: str) -> Artifact:
    return Artifact(
        lambda sizes: figures67.series_tasks(specs, sizes, XEON_E5460),
        lambda points: (figures67.assemble_series(specs, points),),
        _blank_after(lambda s: figures67.format_series_table(s, title)),
        (name,))


# Every artifact in the order the sweep submits, builds and prints it.
# Submission order is also the order worker metric registries merge in.
SWEEP: dict[str, Artifact] = {
    "table1": _one(table1.run_table1, table1.format_table1, "table1"),
    "figure6": _figure("figure6", figures67.FIGURE6_SERIES,
                       "Figure 6: IMB PingPong (MiB/s)"),
    "figure7": _figure("figure7", figures67.FIGURE7_SERIES,
                       "Figure 7: IMB PingPong (MiB/s)"),
    "table2": _one(table2.run_table2, table2.format_table2, "table2"),
    "overlap-miss": Artifact(
        lambda sizes: [(overlap_miss.run_miss_probability, {}),
                       (overlap_miss.run_overloaded_core, {})],
        tuple, _blank_after(overlap_miss.format_overlap_miss),
        ("miss_probability", "overloaded_core")),
    "motivation": _one(motivation.run_motivation,
                       motivation.format_motivation, "motivation"),
    "reuse-sweep": Artifact(
        lambda sizes: reuse_sweep.REUSE_TASKS,
        lambda results: (reuse_sweep.assemble_reuse(results),),
        _blank_after(reuse_sweep.format_reuse_sweep), ("reuse_sweep",)),
    # Five pipeline points, then four capacity and four check points.
    "ablations": Artifact(
        lambda sizes: (ablations.PIPELINE_TASKS + ablations.CAPACITY_TASKS
                       + ablations.CHECK_TASKS),
        lambda points: (points[:5], points[5:9], points[9:]),
        ablations.format_ablations, ()),
}


def run_artifacts(names, sizes: list[int], jobs: int = 1,
                  cache=None) -> dict[str, tuple]:
    """Run the named artifacts' tasks through one pool; return each
    artifact's built results (``SWEEP[name].build``), in sweep order.

    Tasks are submitted in sweep order, so worker metric registries merge
    into the ambient registry in that order whatever ``jobs`` is."""
    artifacts = {name: SWEEP[name] for name in SWEEP if name in names}
    task_lists = [artifact.tasks(sizes) for artifact in artifacts.values()]
    results = iter(parallel_map([t for tasks in task_lists for t in tasks],
                                jobs=jobs, cache=cache))
    return {name: artifact.build([next(results) for _ in tasks])
            for (name, artifact), tasks in zip(artifacts.items(), task_lists)}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses/containers to JSON-ready values."""
    if isinstance(obj, enum.Enum):
        # By *name*, not value: names are stable identifiers while values
        # (often ints or internal strings) can be renumbered freely, and an
        # IntEnum would otherwise serialize as a bare, meaningless number.
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            out[field.name] = to_jsonable(getattr(obj, field.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, bytes):
        return obj.hex()
    # Enums and anything else stringify.
    value = getattr(obj, "value", None)
    return value if isinstance(value, (str, int, float)) else str(obj)


def save_results(path: str | Path, results: dict[str, Any]) -> None:
    """Write a named collection of experiment results as JSON."""
    payload = {name: to_jsonable(r) for name, r in results.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_results(path: str | Path) -> dict[str, Any]:
    """Load results saved by :func:`save_results` (plain dicts/lists)."""
    return json.loads(Path(path).read_text())


def _numeric_leaves(obj: Any, prefix: str = "") -> dict[str, float]:
    leaves: dict[str, float] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "__type__":
                continue
            leaves.update(_numeric_leaves(v, f"{prefix}.{k}" if prefix else k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            leaves.update(_numeric_leaves(v, f"{prefix}[{i}]"))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        leaves[prefix] = float(obj)
    return leaves
