"""Record ``goldens.json``: the digest of every task a run may execute,
after proving the sweep tasks reproduce the committed results.

Candidates are the sweep's tasks, soak seeds 0..999 and sharded scenario
seeds 2009..2108; the default scenario (2009) must land on the digest in
``BENCH_pdes.json``.  Each clean candidate's host time is recorded next to
its digest: the soak and sharded draws are stratified by it.  The proof
replays the benchmark's own task results through the experiment
CLI's result cache: ``python -m repro.experiments --cache-dir DIR --json``
must hit the cache for every one of its tasks and write a file
byte-identical to ``benchmarks/baseline_results.json``.  So the sweep task
list is the CLI's sweep, and the paper goldens are its committed outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e.harness import ROOT, run_tasks
from benchmarks.e2e.workloads import GOLDENS_PATH, WORKLOADS


def _verify_sweep(tasks, pairs) -> None:
    from repro.experiments.cache import ResultCache
    from repro.experiments.table2 import TABLE2_BENCHMARKS, run_table2
    from repro.obs.metrics import MetricRegistry

    by_name = dict(zip((t.name for t in tasks), pairs))
    # The CLI runs table2 as one task: rebuild it from the per-row tasks.
    parts = [by_name[f"table2/{name}"] for name in TABLE2_BENCHMARKS]
    parts.append(by_name["table2/is"])
    registry = MetricRegistry()
    for _, part_registry in parts:
        registry.merge(part_registry)
    rows = [row for result, _ in parts for row in result]

    scratch = ROOT / ".e2e_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        for task, pair in zip(tasks, pairs):
            if task.fn is not run_table2:
                cache.put((task.fn, task.kwargs), pair)
        cache.put((run_table2, {}), (rows, registry))
        out_json = Path(tmp) / "results.json"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--cache-dir",
             str(cache.directory), "--json", str(out_json)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        if " 0 miss(es)" not in run.stderr:
            raise SystemExit(f"sweep task list differs from the CLI's: "
                             f"{run.stderr.strip()}")
        baseline = ROOT / "benchmarks" / "baseline_results.json"
        if out_json.read_bytes() != baseline.read_bytes():
            raise SystemExit(f"sweep results differ from {baseline}")


def write_goldens() -> None:
    """Run every candidate task once, timed as a benchmark run times it,
    and record each clean one's digest and normalized host time; inputs
    that violate an invariant go under ``excluded``."""
    goldens: dict = {"excluded": {}}
    for workload in WORKLOADS.values():
        tasks = workload.candidates()  # independent of goldens.json
        pairs: list = []
        records = run_tasks(workload, tasks, calibrated=True,
                            on_result=lambda *pair: pairs.append(pair))
        if workload.name == "paper_quick":
            _verify_sweep(tasks, pairs)
        if workload.name == "openmx_sharded":
            bench = json.loads((ROOT / "BENCH_pdes.json").read_text())
            if not bench["openmx_shard"]["digest"].startswith(
                    records[0].digest):
                raise SystemExit("openmx_shard digest differs from "
                                 "BENCH_pdes.json")
        clean = goldens[workload.name] = {}
        for record in records:
            if record.failure:
                goldens["excluded"][record.name] = record.failure
            else:
                clean[record.name] = [record.digest,
                                      round(1e3 * record.normalized_s, 1)]
        print(f"{workload.name}: {len(clean)} golden digest(s)",
              file=sys.stderr)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                            + "\n")
