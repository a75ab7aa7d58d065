"""The benchmark's workloads: each turns ``(seed, seconds)`` into one fixed
list of tasks (a *pass*) and names the digest that checks each task.

A task is a ``(fn, kwargs)`` pair run through
:func:`repro.experiments.parallel.run_task`, the same entry point the
experiment CLI uses.  Task names identify their inputs, so a task that
appears twice must produce the same digest both times.  A pass is sized so
that it takes about ``seconds`` on the reference host (2 cores, Python
3.11), and always does the same work for the same arguments.

``goldens.json`` records every candidate task's digest and its host time on
the reference host.  ``paper_quick`` orders the sweep by those times so
that a pass spends its time on the artifacts in about the shares the whole
sweep does.  The soaks and the sharded scenario draw their inputs from a
pool, the candidates recorded as clean.  The draw is stratified by recorded
time (one input from each of ``count`` equal slices of the pool sorted by
cost), so runs at different seeds do nearly the same amount of work.
Every drawn task has a golden digest whatever the seed, and no run meets an
input that violates an invariant at the recorded commit (those are listed
under ``excluded``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["DIGEST_CHARS", "GOLDENS_PATH", "Task", "WORKLOADS", "Workload",
           "load_goldens", "pass_tasks", "sweep_groups"]

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"
DIGEST_CHARS = 16  # digests are compared by their first 64 bits


@dataclass(frozen=True)
class Task:
    name: str
    fn: Callable[..., Any]
    kwargs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], list[Task]]  # (seed, seconds) -> the pass
    digest: Callable[[Any], str]
    violations: Callable[[Any], int]
    candidates: Callable[[], list[Task]]  # the tasks goldens.json records
    # A traced run profiles the first 1/trace_share of the pass.
    trace_share: int = 3
    # Processes a task keeps busy at once (see harness.calibrate).
    processes: int = 1


def _json_digest(result: Any) -> str:
    from repro.experiments.runner import to_jsonable

    blob = json.dumps(to_jsonable(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def sweep_groups() -> list[list[Task]]:
    """Every task of the quick ``python -m repro.experiments`` sweep, one
    group per artifact, with table2 split into one task per benchmark row.

    Within a group the tasks are ordered so that any prefix spans the
    artifact's series: figure points go diagonally over curves and sizes,
    ablation points round-robin over the three ablations, and NPB IS, the
    only argsort-heavy task, comes first in table2.
    """
    from repro.experiments.ablations import (
        cache_capacity_point, overlap_check_point, overlap_point,
        pipeline_point)
    from repro.experiments.figures67 import FAST_SIZES, pingpong_point
    from repro.experiments.motivation import run_motivation
    from repro.experiments.overlap_miss import (
        run_miss_probability, run_overloaded_core)
    from repro.experiments.reuse_sweep import REUSE_POINTS, reuse_point
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import TABLE2_BENCHMARKS, run_table2
    from repro.hw.specs import XEON_E5460
    from repro.openmx import PinningMode as M
    from repro.util.units import KIB, MIB

    def pingpong(artifact, series):
        # Size s of curve (j + s) mod 4, so a prefix spans every curve and
        # every size instead of the first curve only.
        points = [(series[(j + s) % len(series)], FAST_SIZES[s])
                  for j in range(len(series))
                  for s in range(len(FAST_SIZES))]
        return [Task(f"{artifact}/{mode.value}{'+ioat' if ioat else ''}"
                     f"/{nbytes}", pingpong_point,
                     {"mode": mode, "use_ioat": ioat, "nbytes": nbytes,
                      "cpu": XEON_E5460})
                for (mode, ioat), nbytes in points]

    ablations = itertools.zip_longest(
        [Task(f"ablations/pipeline/{chunk}", pipeline_point,
              {"chunk": chunk, "nbytes": 8 * MIB})
         for chunk in (64 * KIB, 128 * KIB, 512 * KIB, 2 * MIB)]
        + [Task("ablations/overlap", overlap_point, {"nbytes": 8 * MIB})],
        [Task(f"ablations/capacity/{cap}", cache_capacity_point,
              {"cap": cap, "nbuffers": 16, "nbytes": 256 * KIB})
         for cap in (4, 8, 16, 32)],
        [Task(f"ablations/check/{cost}", overlap_check_point,
              {"cost": cost, "nbytes": 16 * MIB})
         for cost in (0, 30, 150, 600)])
    return [
        [Task("table1", run_table1, {})],
        pingpong("figure6", [(M.PIN_PER_COMM, False), (M.PERMANENT, False),
                             (M.PIN_PER_COMM, True), (M.PERMANENT, True)]),
        pingpong("figure7", [(M.PIN_PER_COMM, False), (M.OVERLAP, False),
                             (M.CACHE, False), (M.OVERLAP_CACHE, False)]),
        [Task("table2/is", run_table2, {"benchmarks": [], "include_is": True})]
        + [Task(f"table2/{name}", run_table2,
                {"benchmarks": [name], "include_is": False})
           for name in TABLE2_BENCHMARKS],
        [Task("overlap-miss/probability", run_miss_probability, {}),
         Task("overlap-miss/overloaded", run_overloaded_core, {})],
        [Task("motivation", run_motivation, {})],
        [Task(f"reuse-sweep/{mode.value}/{reuse}", reuse_point,
              {"mode": mode, "nbytes": 1 * MIB, "messages": 12,
               "reuse": reuse})
         for reuse in REUSE_POINTS
         for mode in (M.PIN_PER_COMM, M.CACHE, M.OVERLAP)],
        [task for trio in ablations for task in trio if task is not None],
    ]


def _costs(workload: str) -> dict[str, float]:
    """Recorded host ms of every candidate task of ``workload``."""
    return {name: ms for name, (_, ms) in load_goldens()[workload].items()}


def _paper(seed: int, seconds: float) -> list[Task]:
    """The sweep ordered by where the middle of each task falls within its
    artifact's recorded host time, as a share of that time (ties in sweep
    order).  All artifacts advance through their time together, so a
    prefix gives each about its share of the sweep's time; a task joins
    once the prefix covers its middle, so an artifact whose first task is
    more than twice its share of a prefix is left out of it.  The pass is
    the prefix whose recorded times add up to about ``seconds``, and
    repeats the sweep if that is longer.  The paper's configurations are
    fixed: the seed does not apply."""
    cost = _costs("paper_quick")
    keyed = []
    for g, group in enumerate(sweep_groups()):
        total = sum(cost[task.name] for task in group)
        done = 0.0
        for task in group:
            keyed.append(((done + cost[task.name] / 2) / total, g, task))
            done += cost[task.name]
    order = [task for _, _, task in sorted(keyed, key=lambda k: k[:2])]
    tasks: list[Task] = []
    spent = 0.0
    for task in itertools.cycle(order):
        if tasks and spent + cost[task.name] / 2 > 1e3 * seconds:
            break
        tasks.append(task)
        spent += cost[task.name]
    return tasks


def _chaos(seeds) -> list[Task]:
    from repro.faults.chaos import run_chaos

    return [Task(f"chaos/{s}", run_chaos, {"seed": s, "steps": 12})
            for s in seeds]


def _torture(seeds) -> list[Task]:
    from repro.faults.torture import run_torture

    return [Task(f"torture/{s}", run_torture, {"seed": s, "steps": 10})
            for s in seeds]


def _sharded(seeds) -> list[Task]:
    from repro.sim.openmx_shard import openmx_params, run_openmx

    return [Task(f"openmx/{s}", run_openmx,
                 {"params": openmx_params(seed=s), "nshards": 2})
            for s in seeds]


def _draw(workload: str, rate: float, make: Callable[[list[int]], list[Task]]
          ) -> Callable[[int, float], list[Task]]:
    """A pass of ``count = round(seconds * rate)`` inputs (``rate``: the
    workload's task rate on the reference host) drawn from the workload's
    clean pool in a seeded order: one from each of ``count`` slices of the
    pool sorted by host cost (repeating inputs when ``count`` exceeds the
    pool)."""
    def build(seed: int, seconds: float) -> list[Task]:
        cost = _costs(workload)
        ranked = sorted(cost, key=lambda name: (cost[name], name))
        count = max(1, round(seconds * rate))
        rng = random.Random(seed)
        picks = []
        for i in range(count):
            lo = i * len(ranked) // count
            hi = max(lo + 1, (i + 1) * len(ranked) // count)
            picks.append(int(ranked[rng.randrange(lo, hi)].rpartition("/")[2]))
        rng.shuffle(picks)
        return make(picks)
    return build


def _soak_violations(result: Any) -> int:
    return len(result.violations) + (0 if result.finished else 1)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # The whole pass is profiled: its artifacts differ too much for a
    # third of it to stand for the rest.
    Workload("paper_quick", _paper, _json_digest, lambda r: 0,
             lambda: [task for group in sweep_groups() for task in group],
             trace_share=1),
    Workload("chaos_soak", _draw("chaos_soak", 5.9, _chaos),
             lambda r: r.digest, _soak_violations,
             lambda: _chaos(range(1000))),
    Workload("pin_torture", _draw("pin_torture", 4.3, _torture),
             lambda r: r.digest, _soak_violations,
             lambda: _torture(range(1000))),
    # Scenario seed 2009 is the default one, whose end state BENCH_pdes.json
    # records.
    Workload("openmx_sharded", _draw("openmx_sharded", 2.0, _sharded),
             lambda r: r["state"]["digest"], lambda r: 0,
             lambda: _sharded(range(2009, 2109)), processes=2),
)}


def pass_tasks(workload: Workload, seed: int, seconds: float,
               smoke: bool = False) -> list[Task]:
    """The fixed task list one run of ``workload`` executes (its first two
    tasks with ``smoke``)."""
    tasks = workload.build(seed, seconds)
    return tasks[:2] if smoke else tasks


def load_goldens() -> dict:
    """``{workload: {task name: [digest prefix, host ms]}}`` plus
    ``excluded``; see :mod:`benchmarks.e2e.goldens`."""
    return json.loads(GOLDENS_PATH.read_text())
