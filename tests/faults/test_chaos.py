"""The chaos harness: invariants hold over many seeds, runs are
deterministic, and the soak CLI (shared with torture) drives it all."""

import json

import pytest

from repro.faults.chaos import main, run_chaos
from repro.faults.torture import main as torture_main
from repro.openmx import PinningMode


def assert_clean(result):
    assert result.finished, f"seed {result.seed} did not finish"
    assert result.clean, (
        f"seed {result.seed}: " + "; ".join(str(v) for v in result.violations)
    )


def test_single_run_is_clean_and_reports():
    result = run_chaos(seed=1, steps=6)
    assert_clean(result)
    assert result.transfers_ok > 0
    assert result.elapsed_ns > 0
    assert len(result.digest) == 64
    d = result.as_dict()
    assert d["seed"] == 1 and d["violations"] == []


def test_same_seed_reruns_bit_identical():
    a = run_chaos(seed=9, steps=6)
    b = run_chaos(seed=9, steps=6)
    assert a.digest == b.digest
    assert a.as_dict() == b.as_dict()


def test_different_seeds_diverge():
    assert run_chaos(seed=2, steps=4).digest != run_chaos(seed=3, steps=4).digest


def test_explicit_mode_override():
    result = run_chaos(seed=4, steps=4, mode=PinningMode.OVERLAP_CACHE)
    assert result.mode == "overlap-cache"
    assert_clean(result)


def test_soak_fifty_seeds_no_violations():
    """The acceptance soak: >= 50 distinct seeds, all five pinning modes
    (rotated by seed), zero invariant violations."""
    modes_seen = set()
    for seed in range(50):
        result = run_chaos(seed, steps=3)
        assert_clean(result)
        modes_seen.add(result.mode)
    assert modes_seen == {m.value for m in PinningMode}


# Both soaks share one CLI (``soak_parser`` + ``run_soak``); every CLI
# test runs against each harness's ``main``.
MAINS = [pytest.param(main, id="chaos"),
         pytest.param(torture_main, id="torture")]


@pytest.mark.parametrize("cli", MAINS)
def test_cli_json_output_and_exit_code(cli, capsys):
    rc = cli(["--seeds", "0", "2", "--steps", "2", "--json"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line, seed in zip(lines, (0, 1)):
        payload = json.loads(line)
        assert payload["seed"] == seed
        assert payload["violations"] == []


@pytest.mark.parametrize("cli", MAINS)
def test_cli_plain_output(cli, capsys):
    rc = cli(["--seed", "5", "--steps", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed=   5" in out and "CLEAN" in out


@pytest.mark.parametrize("cli", MAINS)
def test_cli_seeds_n_equals_seeds_zero_n(cli, capsys):
    assert cli(["--seeds", "3", "--steps", "2"]) == 0
    short = capsys.readouterr().out
    assert cli(["--seeds", "0", "3", "--steps", "2"]) == 0
    assert capsys.readouterr().out == short
    assert [line[:9] for line in short.splitlines()] == [
        "seed=   0", "seed=   1", "seed=   2"]


@pytest.mark.parametrize("cli", MAINS)
def test_cli_until_failure_gives_up_after_max_seeds(cli, capsys):
    assert cli(["--until-failure", "--max-seeds", "1", "--steps", "2"]) == 0
    assert "no failure in 1 seed(s) starting at 0" in capsys.readouterr().out


@pytest.mark.parametrize("cli", MAINS)
@pytest.mark.parametrize("argv", [
    ["--seeds", "5", "2"],
    ["--seeds", "0", "0"],
    ["--seeds", "0"],
    ["--seeds", "1", "2", "3"],
    ["--steps", "0"],
    ["--steps", "-2"],
    ["--until-failure", "--max-seeds", "0"],
    ["--jobs", "0"],
    ["--jobs", "-2"],
], ids=" ".join)
def test_cli_bad_input_is_a_usage_error(cli, argv, capsys):
    """A soak that would test nothing (or crash) exits 2 before running."""
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("cli", MAINS)
@pytest.mark.parametrize("shards", ["abc", "0"])
def test_cli_bad_shards_is_a_usage_error(cli, shards, capsys):
    """No soak takes --shards (the sharded gate is the microbench's
    ``openmx_shard``); it exits 2 before running."""
    with pytest.raises(SystemExit) as exc:
        cli(["--shards", shards, "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--shards" in captured.err
