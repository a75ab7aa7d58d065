"""The microbench CLI (``python -m repro.sim.bench``): bad input is an
argparse usage error before any scenario runs, ``openmx_shard`` alone
writes the committed ``BENCH_pdes.json`` layout to ``--json``, and a run
that mixes it with other scenarios writes both reports."""

import json
from pathlib import Path

import pytest

import repro.sim.bench as bench
import repro.sim.openmx_shard as openmx_shard


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation started on bad input")


@pytest.mark.parametrize("argv", [
    ["--quick", "--repeat", "0", "event_pingpong"],
    ["--quick", "--repeat", "-1", "event_pingpong"],
    ["--quick", "--repeat", "0", "openmx_shard"],
    ["--quick", "--shards", "abc", "openmx_shard"],
    ["--quick", "--shards", "0", "openmx_shard"],
], ids=" ".join)
def test_bad_input_is_a_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_time_once", _no_simulation)
    monkeypatch.setattr(openmx_shard, "run_openmx", _no_simulation)
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_one_repeat_runs(capsys):
    assert bench.main(["--quick", "--repeat", "1", "event_pingpong"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("event_pingpong")
    assert "TOTAL" in out


def test_unknown_scenario_lists_the_valid_names(monkeypatch, capsys):
    monkeypatch.setattr(bench, "_time_once", _no_simulation)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--quick", "event_pingpong", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    for name in [*bench.SCENARIOS, "openmx_shard"]:
        assert name in err


def test_usage_line_has_no_empty_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{," not in out and "[scenario ...]" in out


def _fake_time_once(name, rounds):
    return 0.001, 10, dict.fromkeys(bench._ENGINE_COUNTERS, 0), {}


def _fake_run_openmx(params, shards, *, mode=None, lookahead_ns=None,
                     strategy="block"):
    stats = {"wall_s": 0.001, "shards": shards, "mode": mode,
             "strategy": strategy, "windows": 1, "advance_ns": 1,
             "cross_shard_frames": 0, "critical_path_s": 0.001,
             "barrier_idle_s": 0.0, "busy_s_by_shard": [0.001] * shards,
             "idle_s_by_shard": [0.0] * shards, "coordinator_wait_s": 0.0}
    return {"stats": stats, "state": {"events": 7, "digest": "d1"}}


def test_mixed_run_writes_both_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_time_once", _fake_time_once)
    monkeypatch.setattr(openmx_shard, "run_openmx", _fake_run_openmx)
    out = tmp_path / "mixed.json"
    assert bench.main(["--quick", "--repeat", "1", "--json", str(out),
                       "event_pingpong", "openmx_shard", "--shards", "1"]) == 0
    report = json.loads(out.read_text())
    assert list(report["scenarios"]) == ["event_pingpong"]
    shard = report["openmx_shard"]
    assert shard["schema"] == "repro.bench.openmx-shard/v1"
    assert shard["shards"] == 1 and shard["events"] == 7
    printed = capsys.readouterr().out
    assert "openmx_shard A/B (" in printed and "event_pingpong" in printed
    assert "does not apply at one shard" in printed
    assert "speedup 0" not in printed and "attainable" not in printed


def test_sharded_report_prints_the_speedup(monkeypatch, capsys):
    monkeypatch.setattr(openmx_shard, "run_openmx", _fake_run_openmx)
    assert bench.main(["--quick", "--repeat", "1", "--shards", "2",
                       "openmx_shard"]) == 0
    printed = capsys.readouterr().out
    assert "wall speedup 1.00x" in printed and "attainable with >= 2" in printed
    assert "does not apply" not in printed


def test_openmx_shard_alone_writes_the_bench_pdes_layout(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(bench, "_time_once", _no_simulation)
    monkeypatch.setattr(openmx_shard, "run_openmx", _fake_run_openmx)
    out = tmp_path / "pdes.json"
    assert bench.main(["--quick", "--repeat", "1", "--shards", "4",
                       "--json", str(out), "openmx_shard"]) == 0
    fresh = json.loads(out.read_text())
    committed = json.loads(
        (Path(__file__).parents[2] / "BENCH_pdes.json").read_text())
    assert fresh["schema"] == committed["schema"] == "repro.bench.pdes/v2"
    assert set(fresh) == set(committed)
    assert set(fresh["openmx_shard"]) == set(committed["openmx_shard"])
    assert fresh["openmx_shard"]["shards"] == 4
