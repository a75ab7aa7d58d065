"""Tests of the end-to-end benchmark; run with
``python -m pytest benchmarks/e2e -q`` from the repository root.  The runs
use ``--smoke`` (two tasks per workload)."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import __main__ as cli
from benchmarks.e2e import harness
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.harness import tail
from benchmarks.e2e.layers import LAYERS, MODULE_LAYER, module_of_file
from benchmarks.e2e.workloads import WORKLOADS, load_goldens, pass_tasks

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))  # repro, for the in-process tests


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "benchmarks.e2e", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def _result_line(out: subprocess.CompletedProcess) -> dict:
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def test_every_repro_module_maps_to_exactly_one_layer():
    src = ROOT / "src"
    modules = {module_of_file(path, src)
               for path in (src / "repro").rglob("*.py")}
    assert modules == set(MODULE_LAYER)
    assert len(MODULE_LAYER) == sum(len(m) for m in LAYERS.values())


def test_metric_names_units_and_directions():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert metric["unit"] and metric["better"] in ("lower", "higher")


def test_bounds_follow_from_the_baseline_spreads():
    """Each bound is its floor, widened to three times the widest quartile
    spread of any set of any workload in baseline.json (rounded up to a
    whole percent), and at most 25%."""
    baseline = json.loads(
        (ROOT / "benchmarks/e2e/baseline.json").read_text())["end_to_end"]
    floors = {"wall_s": 0.05, "cpu_s": 0.05, "task_p50_ms": 0.08,
              "task_tail_ms": 0.10, "setup_s": 0.15, "peak_rss_mb": 0.05}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(bounds) == set(floors)
    for name, bound in bounds.items():
        widest = max(max(w[name]["spread_set1"], w[name]["spread_set2"])
                     for w in baseline.values())
        expected = min(0.25, max(floors[name], math.ceil(300 * widest) / 100))
        assert bound == pytest.approx(expected), name
    assert bounds["setup_s"] == max(bounds.values())


def test_paper_pass_repeats_the_sweep_when_longer():
    sweep = {t.name for t in WORKLOADS["paper_quick"].candidates()}
    tasks = pass_tasks(WORKLOADS["paper_quick"], 0, 120)
    assert len(tasks) > len(sweep) and {t.name for t in tasks} == sweep


def test_tail_is_the_value_with_ten_samples_beyond_it():
    assert tail(list(range(1, 26))) == 15
    assert tail(list(range(11, 0, -1))) == 1
    assert tail(list(range(1, 11))) == 10  # too few: the maximum
    assert harness.tail_percentile(100) == 90.0


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "lower", "improved"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "lower", "worse"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [101, 100, 100, 99, 101, 99, 102, 100, 98, 100], "lower", "no-worse"),
    ([60, 140, 70, 130, 100, 65, 135, 100, 75, 125],
     [105, 95, 100, 110, 90, 100, 104, 96, 100, 102], "lower", "unresolved"),
    # Wins every pair, by less than the parent's spread: not improved, but
    # not unresolved either, since every change run beats every parent run.
    ([60, 140, 70, 130, 100, 65, 135, 100, 75, 125],
     [59, 58, 57, 56, 55, 54, 53, 52, 51, 50], "lower", "no-worse"),
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "higher", "worse"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert verdict(parent, change, better, bound=0.1) == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = _run("--workload", workload, "--smoke")
    assert out.returncode == 0, out.stderr
    line = _result_line(out)
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_forced_digest_mismatch_fails_the_run(monkeypatch, capsys):
    goldens = load_goldens()
    goldens["chaos_soak"] = {name: ["0" * 16, ms] for name, (_, ms)
                             in goldens["chaos_soak"].items()}
    monkeypatch.setattr(harness, "load_goldens", lambda: goldens)
    assert cli.main(["--workload", "chaos_soak", "--smoke"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not line["correct"] and line["failed"] == 2


def test_traced_runs_repeat_calls_in_and_account_for_the_wall():
    lines = []
    for _ in range(2):
        out = _run("--workload", "chaos_soak", "--smoke", "--trace", "1")
        assert out.returncode == 0, out.stderr
        lines.append({k: v["value"] for k, v in
                      _result_line(out)["metrics"].items()})
    assert set(lines[0]) == {m["name"] for m in SPEC["per_layer"]}
    calls = [{k: v for k, v in line.items() if k.endswith(".calls_in")}
             for line in lines]
    assert calls[0] == calls[1]
    for line in lines:
        self_total = sum(v for k, v in line.items() if k.endswith(".self_s"))
        assert self_total == pytest.approx(line["trace.wall_s"], rel=0.05)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "chaos_soak", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
