"""The microbench CLI (``python -m repro.sim.bench``): bad input is an
argparse usage error before any scenario runs."""

import pytest

import repro.sim.bench as bench
import repro.sim.openmx_shard as openmx_shard


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation started on bad input")


@pytest.mark.parametrize("argv", [
    ["--quick", "--repeat", "0", "event_pingpong"],
    ["--quick", "--repeat", "-1", "event_pingpong"],
    ["--quick", "--ab-openmx", "--repeat", "0"],
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
