"""Deterministic multiprocess fan-out for experiment workloads.

Every experiment in this repository is a pure function of its arguments
(the simulator is seeded and bit-for-bit reproducible), so independent
points of a sweep can run in separate worker processes without changing
any result.  :func:`parallel_map` provides that fan-out with a hard
determinism contract:

* results come back **in submission order** regardless of which worker
  finished first (futures are collected in the order they were submitted);
* each task runs under a **fresh** :class:`~repro.obs.MetricRegistry`
  installed as the process default, and the worker ships that registry
  back with the result; the parent folds the registries into the ambient
  registry **in submission order**, so ``--metrics`` snapshots aggregate
  the same totals serially and in parallel;
* ``jobs=1`` executes the identical task list in-process through the very
  same per-task-registry path, so serial and parallel runs are the same
  code shape — byte-identical ``--json`` output is verified by the
  determinism test suite, not just asserted here.

Tasks are ``(fn, kwargs)`` pairs where ``fn`` is a module-level callable
(the multiprocessing pickler requires it).  A task that occurs more than
once in a map (same function, same canonical arguments; see
:func:`repro.experiments.cache.task_key`) runs once, and every occurrence
gets its result and merges its registry, as if each had run.  The optional
``cache`` argument (a :class:`repro.experiments.cache.ResultCache`)
short-circuits tasks whose results were computed by a previous run of the
same code.

A worker that dies (SIGKILL, the OOM killer, a crash in C code) fails the
map at once with a ``BrokenProcessPool`` naming the task(s) it was running;
it never hangs the parent.  A task that raises, or whose result cannot be
pickled back, fails the map with a ``RuntimeError`` naming that task,
chained to the original error.
"""

from __future__ import annotations

import gc
import multiprocessing
import reprlib
from typing import Any, Callable, Sequence

from repro.experiments.cache import task_key
from repro.obs.metrics import MetricRegistry, current_registry, use_registry

__all__ = ["Task", "merge_worker_registries", "parallel_map", "run_task"]

# A unit of work: module-level callable + keyword arguments.
Task = tuple[Callable[..., Any], dict[str, Any]]


def merge_worker_registries(registries: Sequence[MetricRegistry],
                            into: MetricRegistry | None = None) -> None:
    """Fold worker registries into ``into`` (default: the ambient registry).

    The fold is **in sequence order** — submission order for
    :func:`parallel_map`, shard order for the PDES coordinator — so
    aggregation is deterministic regardless of which worker finished
    first.  Counters sum; gauges follow their
    declared per-metric merge policy (``last``/``sum``/``max``, see
    :class:`repro.obs.metrics.Gauge`), which is what lets per-engine
    gauges like ``sim_wheel_pending`` aggregate across the workers of one
    run instead of the last worker overwriting every other engine's
    value.
    """
    ambient = current_registry() if into is None else into
    if ambient is None:
        return
    for registry in registries:
        ambient.merge(registry)


def run_task(task: Task) -> tuple[Any, MetricRegistry]:
    """Run one task under a fresh registry; return (result, registry).

    The task's garbage is collected before this returns, so a run of many
    tasks holds one task's simulated machine at a time.  This is the
    worker entry point — it must stay module-level so the
    multiprocessing pickler can find it in the child.
    """
    fn, kwargs = task
    registry = MetricRegistry()
    # A finished run leaves its simulated machine behind as cyclic garbage
    # (hosts, kernels, NICs, drivers and the engine point at each other):
    # megabytes of page frames that the collector reaches only many tasks
    # later.  Collect it as the task ends.  Freezing what existed before
    # the task keeps that collection to the objects the task made.
    gc.freeze()
    try:
        with use_registry(registry):
            result = fn(**kwargs)
    finally:
        gc.collect()
        gc.unfreeze()
    return result, registry


# Per-map flags, one per task, set by the worker that starts the task: they
# tell the tasks a dead worker was running from those still queued.
_started = None


def _init_worker(started) -> None:
    global _started
    _started = started


def _run_marked(index: int, task: Task) -> tuple[Any, MetricRegistry]:
    _started[index] = 1
    return run_task(task)


def _describe(index: int, task: Task) -> str:
    fn, kwargs = task
    return (f"#{index} {fn.__module__}.{fn.__qualname__}"
            f"(**{reprlib.repr(kwargs)})")


def _run_pool(tasks: list[Task],
              jobs: int) -> list[tuple[Any, MetricRegistry]]:
    """Run ``tasks`` on ``jobs`` forked workers; results in task order."""
    # Imported here: callers of run_task alone (the e2e benchmark) should
    # not pay for the executor machinery.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork keeps workers cheap (no re-import) and inherits the
    # already-loaded modules; tasks and results only need pickling.
    ctx = multiprocessing.get_context("fork")
    started = ctx.RawArray("b", len(tasks))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                             initializer=_init_worker,
                             initargs=(started,)) as pool:
        futures = [pool.submit(_run_marked, i, t) for i, t in enumerate(tasks)]
        results: list[tuple[Any, MetricRegistry]] = []
        try:
            for future in futures:
                results.append(future.result())
            return results
        except BrokenProcessPool as exc:
            running = [_describe(i, t) for i, (t, f) in
                       enumerate(zip(tasks, futures))
                       if started[i] and isinstance(f.exception(),
                                                    BrokenProcessPool)]
            raise BrokenProcessPool(
                f"a worker process died abruptly (killed or crashed) while "
                f"running {' or '.join(running) or 'a task'} "
                f"of {len(tasks)}") from exc
        except Exception as exc:
            # The task raised, or its result would not pickle: name it.
            pool.shutdown(cancel_futures=True)  # fail fast: drop the queue
            index = len(results)
            raise RuntimeError(
                f"task {_describe(index, tasks[index])} of {len(tasks)} "
                f"failed: {type(exc).__name__}: {exc}") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def parallel_map(tasks: Sequence[Task], jobs: int = 1,
                 cache: Any = None) -> list[Any]:
    """Run ``tasks`` across ``jobs`` worker processes, deterministically.

    Returns the task results in submission order.  Each distinct task
    runs once: a repeated one hands its result (the same object: tasks
    return immutable results) to every occurrence, and its registry is
    merged once per occurrence, so totals match a map that ran each.
    Error messages number the distinct tasks.  With ``jobs <= 1`` (or a
    single distinct task) everything runs in-process — same code path, no
    pool.  A ``cache`` (see :mod:`repro.experiments.cache`) is consulted
    first; hits skip execution entirely and still merge their recorded
    metrics, so a warm run produces the same ``--json`` *and*
    ``--metrics`` output as a cold one.
    """
    first: dict[str, int] = {}
    occurrences: list[int] = []  # per task, its index in ``distinct``
    distinct: list[Task] = []
    for task in tasks:
        key = task_key(task)
        index = first.get(key)
        if index is None:
            index = first[key] = len(distinct)
            distinct.append(task)
        occurrences.append(index)
    pairs = _run_distinct(distinct, jobs, cache)
    merge_worker_registries([pairs[i][1] for i in occurrences])
    return [pairs[i][0] for i in occurrences]


def _run_distinct(tasks: list[Task], jobs: int,
                  cache: Any) -> list[tuple[Any, MetricRegistry]]:
    """(result, registry) of each task, from ``cache`` or by running it."""
    pairs: list[tuple[Any, MetricRegistry] | None] = [None] * len(tasks)
    misses: list[int] = []
    if cache is not None:
        for i, task in enumerate(tasks):
            hit = cache.get(task)
            if hit is not None:
                pairs[i] = hit
            else:
                misses.append(i)
    else:
        misses = list(range(len(tasks)))

    if misses:
        todo = [tasks[i] for i in misses]
        if jobs <= 1 or len(todo) == 1:
            computed = [run_task(t) for t in todo]
        else:
            computed = _run_pool(todo, min(jobs, len(todo)))
        for i, pair in zip(misses, computed):
            pairs[i] = pair
            if cache is not None:
                cache.put(tasks[i], pair)

    return pairs
