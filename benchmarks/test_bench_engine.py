"""Benchmark: raw engine dispatch throughput (``repro.sim.bench``).

Unlike the experiment benchmarks this one also carries correctness
assertions: the Timeout free-list must actually engage on the retransmit
idiom, every engine scenario must dispatch exactly the events the seed
heap engine dispatched (the optimization contract — speed may change,
simulated behavior may not), and the ``--ab-rev`` harness must refuse to
compare runs whose simulated end states differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.bench import SCENARIOS, gate_end_states, run_scenario, sim_state

from benchmarks.conftest import full_sweep

ROOT = Path(__file__).resolve().parents[1]

# Quick-scale event counts of the engine scenarios, on which the seed heap
# engine and the timer-wheel engine agreed when the seed engine was retired.
QUICK_EVENTS = {
    "timer_churn": 38_432,
    "timeout_ladder": 19_328,
    "event_pingpong": 24_004,
    "condition_fanout": 27_002,
    "wheel_storm": 8_592,
}

# poll_spin postdates the seed engine.  Its quick end state was recorded at
# the revision whose core claims still kept holders in a set and whose
# single-expiry level-1 slots still passed through level 0.
POLL_SPIN_QUICK_STATE = {
    "now_ns": 9_991_800,
    "events": 7_063,
    "wheel_ticks": 2_282,
    "wheel_cascades": 2_432,
    "total_grants": 2_270,
    "busy_time": 9_246_000,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_scenario(run_once, name):
    report = run_once(run_scenario, name, quick=not full_sweep(), repeat=1)
    assert report["events"] > 0
    assert report["events_per_sec"] > 0
    print()
    print(f"{name}: {report['events']} events, "
          f"{report['events_per_sec']:,} events/sec, "
          f"{report['timeouts_recycled']} timeouts recycled "
          f"({report['timeouts_reused']} reused)")


def test_timer_churn_engages_free_list():
    # The whole point of the fast path: cancelled retransmit timers are
    # recycled, and later timeout() calls are served from the pool.
    report = run_scenario("timer_churn", quick=True, repeat=1)
    assert report["timeouts_recycled"] > 0
    assert report["timeouts_reused"] > 0


def test_per_scenario_counters_are_scenario_local():
    # Counters in a scenario's report must come from *its own* timed run.
    # condition_fanout cancels its loser timers, so it must report its own
    # recycling — and wheel_storm must show wheel mechanics (cascades from
    # mid-level timers, promotions off the overflow heap) that the pure
    # short-delay scenarios never trigger.
    fanout = run_scenario("condition_fanout", quick=True, repeat=1)
    assert fanout["timeouts_recycled"] > 0
    assert fanout["timeouts_reused"] > 0

    storm = run_scenario("wheel_storm", quick=True, repeat=1)
    assert storm["timeouts_recycled"] > 0
    assert storm["wheel_ticks"] > 0
    assert storm["wheel_cascades"] > 0
    assert storm["wheel_promotions"] > 0

    pingpong = run_scenario("event_pingpong", quick=True, repeat=1)
    assert pingpong["wheel_ticks"] == 0  # pure ready-FIFO traffic
    assert pingpong["timeouts_recycled"] == 0


@pytest.mark.parametrize("name", sorted(QUICK_EVENTS))
def test_quick_event_count_matches_seed_engine(name):
    assert run_scenario(name, quick=True, repeat=1)["events"] == \
        QUICK_EVENTS[name]


def test_poll_spin_quick_end_state_matches_recorded():
    assert run_scenario("poll_spin", quick=True, repeat=1)["events"] == \
        POLL_SPIN_QUICK_STATE["events"]
    assert sim_state("poll_spin", quick=True)["state"] == POLL_SPIN_QUICK_STATE


def _bench(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "repro.sim.bench", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def test_ab_rev_head_reports_equal_end_states():
    out = _bench("--quick", "--repeat", "1", "--ab-rev", "HEAD",
                 "event_pingpong", "datapath_pull")
    assert out.returncode == 0, out.stderr
    assert "end states equal on both sides in all 2 scenario(s)" in out.stdout
    print()
    print(out.stdout)


def test_ab_rev_unknown_revision_is_named_without_traceback():
    out = _bench("--quick", "--ab-rev", "no-such-rev", "event_pingpong")
    assert out.returncode != 0
    assert "'no-such-rev'" in out.stderr
    assert "Traceback" not in out.stderr


def test_end_state_gate_names_the_differing_key():
    base = {"vm_churn": {"now_ns": 5, "procs": [{"faults": 3, "pins": 2}]}}
    current = {"vm_churn": {"now_ns": 5, "procs": [{"faults": 4, "pins": 2}]}}
    gate_end_states(base, base)
    with pytest.raises(SystemExit) as exc:
        gate_end_states(base, current)
    message = str(exc.value)
    assert "vm_churn.procs.0.faults: base=3 current=4" in message
    assert "pins" not in message and "now_ns" not in message
