"""Torture-suite harness tests: clean runs, determinism, shrinking.

The heavy multi-seed soaks live in the CI torture job; here we verify the
harness's own contract on short runs — every episode family recovers to a
quiescent, leak-free state, the digest is a pure function of
``(seed, steps, mode)``, and the failure shrinker converges.
"""

from dataclasses import dataclass

import pytest

from repro.faults.shrink import hunt_until_failure, shrink_failure
from repro.faults.torture import EPISODES, TortureResult, run_torture
from repro.openmx.config import PinningMode


# -- clean short runs ---------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 3, 4])
def test_short_torture_run_is_clean(seed):
    result = run_torture(seed, steps=12)
    assert result.clean, [str(v) for v in result.violations]
    assert result.finished
    assert result.transfers_ok > 0
    # Every episode recovered: one recovery sample per executed step.
    assert result.recovery_ns["n"] == 12
    assert result.recovery_ns["p99"] > 0


def test_torture_exercises_every_episode_family():
    seen = set()
    for seed in range(4):
        seen.update(k for k, v in run_torture(seed, 15).episode_counts.items()
                    if v)
    assert seen == set(EPISODES)


@pytest.mark.parametrize("mode", list(PinningMode))
def test_explicit_mode_override_is_clean(mode):
    result = run_torture(2, steps=8, mode=mode)
    assert result.clean, [str(v) for v in result.violations]
    assert result.mode == mode.value


def test_send_completion_drained_before_its_submit_returns_is_kept():
    """Seed 9074 (overlap-cache): a large send's rndv leaves mid-syscall
    and the whole transfer finishes while ``submit_send_large`` is still
    pinning, so another wait on the same lib drains its ``SendLargeDone``
    before ``isend`` registers the seq.  Dropping it left the sender's
    wait spinning forever (a liveness violation)."""
    result = run_torture(9074, steps=10)
    assert result.clean, [str(v) for v in result.violations]
    assert result.finished


# -- determinism --------------------------------------------------------------

def test_same_seed_same_digest():
    a = run_torture(5, steps=10)
    b = run_torture(5, steps=10)
    assert a.digest == b.digest
    assert a.as_dict() == b.as_dict()


def test_different_seeds_different_digests():
    digests = {run_torture(seed, 10).digest for seed in range(4)}
    assert len(digests) == 4


# -- shrinker -----------------------------------------------------------------

@dataclass
class FakeResult:
    clean: bool
    violations: tuple = ()


def test_shrink_failure_binary_searches_steps():
    calls = []

    def run(seed, steps):
        calls.append((seed, steps))
        # Monotone failure: seed 9 breaks from step 37 onward.
        return FakeResult(clean=not (seed == 9 and steps >= 37))

    assert shrink_failure(run, 9, 400) == (9, 37)
    # Binary search, not a linear scan: far fewer probes than steps.
    assert len(calls) < 25


def test_shrink_failure_prefers_smaller_failing_seed():
    def run(seed, steps):
        return FakeResult(clean=not (seed in (4, 9) and steps >= 10))

    seed, steps = shrink_failure(run, 9, 50)
    assert (seed, steps) == (4, 10)


def test_shrink_failure_never_returns_clean_pair():
    def run(seed, steps):
        return FakeResult(clean=not (seed == 3 and steps >= 5))

    seed, steps = shrink_failure(run, 3, 5)
    assert not run(seed, steps).clean


def test_hunt_until_failure_finds_and_shrinks():
    logged = []

    def run(seed, steps):
        bad = seed == 2 and steps >= 3
        return FakeResult(clean=not bad,
                          violations=("boom",) if bad else ())

    best = hunt_until_failure(
        run, 0, 100, max_seeds=10,
        repro_command=lambda s, st: f"repro --seed {s} --steps {st}",
        log=logged.append)
    assert best == (2, 3)
    assert any("repro --seed 2 --steps 3" in line for line in logged)


def test_hunt_until_failure_respects_max_seeds():
    seeds = []

    def run(seed, steps):
        seeds.append(seed)
        return FakeResult(clean=True)

    assert hunt_until_failure(run, 7, 20, max_seeds=3,
                              log=lambda _: None) is None
    assert seeds == [7, 8, 9]


# -- result plumbing ----------------------------------------------------------

def test_result_as_dict_roundtrips_key_fields():
    result = run_torture(1, steps=6)
    d = result.as_dict()
    assert d["seed"] == 1
    assert d["digest"] == result.digest
    assert d["violations"] == []
    assert isinstance(result, TortureResult)
