"""The ``python -m repro.experiments`` command line: parsing only.

Nothing here runs an artifact; ``--help`` and bad flags must exit before
the sweep starts.
"""

import pytest

from repro.experiments.__main__ import _parse, main


def test_help_exits_zero_without_running(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: python -m repro.experiments" in capsys.readouterr().out


def test_unknown_flag_exits_two_and_is_named(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--bogus"])
    assert exc.value.code == 2
    assert "--bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--jobs", "0"], ["--jobs", "x"],
                                  ["--cache-dir"], ["--json"]])
def test_bad_flag_values_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unknown_artifact_is_listed():
    with pytest.raises(SystemExit) as exc:
        main(["table3"])
    assert "unknown artifact(s) ['table3']" in str(exc.value.code)


def test_flags_and_artifacts_intermix():
    args = _parse(["table1", "--jobs", "2", "overlap_miss", "--cache-dir",
                   "d", "--full"])
    assert args.artifacts == ["table1", "overlap_miss"]
    assert (args.jobs, args.cache_dir, args.full) == (2, "d", True)
    assert (args.json, args.metrics, args.cache) == (None, None, False)
