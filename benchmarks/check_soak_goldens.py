#!/usr/bin/env python
"""Check every soak seed and sharded scenario seed against its golden digest.

Recomputes ``run_chaos(s, 12)`` and ``run_torture(s, 10)`` for seeds
0..999 and ``run_openmx(openmx_params(seed=s), nshards=2)`` for seeds
2009..2108 (the inputs ``benchmarks/e2e/goldens.json`` records for the
``chaos_soak``, ``pin_torture`` and ``openmx_sharded`` workloads, run as
those workloads run them) through
:func:`repro.experiments.parallel.parallel_map`, and compares each digest's
prefix with the recorded one.  The benchmark's own smoke run draws two
tasks per workload; a change that moves one seed in a thousand shows only
here.  Exits 1 naming every seed whose digest differs.

Usage::

    PYTHONPATH=src python benchmarks/check_soak_goldens.py

It runs one worker process per usable core; each sharded run forks one
more process for its second shard.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.parallel import parallel_map
from repro.faults.chaos import run_chaos
from repro.faults.torture import run_torture
from repro.sim.openmx_shard import openmx_params, run_openmx
from repro.sim.pdes import host_core_count

GOLDENS = Path(__file__).resolve().parent / "e2e" / "goldens.json"
SEEDS = range(1000)
SHARDED_SEEDS = range(2009, 2109)
# (workload in goldens.json, task-name prefix, function, steps)
SOAKS = (("chaos_soak", "chaos", run_chaos, 12),
         ("pin_torture", "torture", run_torture, 10))


def _checks(seeds, sharded_seeds):
    """``(workload, task name, task, digest of its result)`` per input."""
    for workload, prefix, fn, steps in SOAKS:
        for seed in seeds:
            yield (workload, f"{prefix}/{seed}",
                   (fn, {"seed": seed, "steps": steps}),
                   lambda result: result.digest)
    for seed in sharded_seeds:
        yield ("openmx_sharded", f"openmx/{seed}",
               (run_openmx, {"params": openmx_params(seed=seed),
                             "nshards": 2}),
               lambda result: result["state"]["digest"])


def find_mismatches(seeds=SEEDS, jobs: int = 1,
                    sharded_seeds=()) -> list[str]:
    """Names (``chaos/<s>``, ``torture/<s>``, ``openmx/<s>``) of the tasks
    whose digest does not start with the recorded prefix, in task order."""
    goldens = json.loads(GOLDENS.read_text())
    checks = list(_checks(seeds, sharded_seeds))
    results = parallel_map([task for _, _, task, _ in checks], jobs=jobs)
    return [name for (workload, name, _, digest), result
            in zip(checks, results)
            if not digest(result).startswith(goldens[workload][name][0])]


def main() -> int:
    bad = find_mismatches(SEEDS, jobs=host_core_count(),
                          sharded_seeds=SHARDED_SEEDS)
    if bad:
        print(f"{len(bad)} golden digest(s) differ from {GOLDENS}: "
              + " ".join(bad), file=sys.stderr)
        return 1
    total = len(SOAKS) * len(SEEDS) + len(SHARDED_SEEDS)
    print(f"all {total} soak and sharded digests match {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
