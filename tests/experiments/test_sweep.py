"""The quick sweep's one task list, and its byte-identity across ``--jobs``.

``benchmarks/e2e/workloads.py:sweep_groups()`` keeps its own copy of the
sweep's tasks, and the e2e goldens replay it through the CLI's result
cache, which misses on any task whose function or arguments differ.  The
first test holds the two lists equal (read-only: nothing under
``benchmarks/e2e`` is touched).
"""

from collections import Counter

from benchmarks.e2e.workloads import sweep_groups
from repro.experiments.__main__ import main
from repro.experiments.cache import _canonical_args
from repro.experiments.figures67 import FAST_SIZES
from repro.experiments.runner import SWEEP
from repro.experiments.table2 import run_table2


def _keys(tasks):
    return Counter((fn, _canonical_args(kwargs)) for fn, kwargs in tasks)


def test_cli_task_list_is_the_benchmark_sweep():
    cli = [task for artifact in SWEEP.values()
           for task in artifact.tasks(FAST_SIZES)]
    # The CLI runs table2 as one task; the benchmark splits it per row.
    bench = [(t.fn, t.kwargs) for group in sweep_groups() for t in group
             if t.fn is not run_table2] + [(run_table2, {})]
    assert len(cli) == len(bench)
    assert _keys(cli) == _keys(bench)


def _run(tmp_path, monkeypatch, capsys, jobs):
    run_dir = tmp_path / f"jobs{jobs}"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main(["table1", "motivation", "--jobs", str(jobs),
                 "--json", "out.json"]) == 0
    return capsys.readouterr().out, (run_dir / "out.json").read_bytes()


def test_jobs_do_not_change_stdout_or_json(tmp_path, monkeypatch, capsys):
    serial = _run(tmp_path, monkeypatch, capsys, 1)
    pooled = _run(tmp_path, monkeypatch, capsys, 2)
    assert "Table 1" in serial[0] and "Motivation" in serial[0]
    assert pooled == serial

