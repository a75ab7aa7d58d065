"""Benchmark + equivalence guardrails for the VM-layer index change.

The contract under test: the bisect-indexed AddressSpace, the
interval-dispatched notifier index, the prefix-array region geometry and
the fused pin charge must simulate *exactly* the same world as the linear
seed stack they replaced while dispatching fewer heap events — and the
fused pin path must stand down (slow per-page path, same timestamps) the
moment anything could observe the difference.  The seed stack is retired;
what it proved on these fixed inputs is recorded below, and its linear
address space and region index live on as the reference of
``tests/property/test_vm_index_props.py``.
"""

import hashlib
import json
from pathlib import Path

from repro.sim import Environment
from repro.sim.bench import SCENARIOS, _time_once, _vm_churn

from benchmarks.conftest import full_sweep

QUICK_ROUNDS = SCENARIOS["vm_churn"].quick

# The linear seed stack's event counts on this scenario, and the sha256 of
# the full-scale end state it and the indexed stack both reached.
SEED_EVENTS = {"quick": 2_884, "full": 51_700}
FULL_STATE_SHA256 = (
    "cfea7bc382a0ccf3db8440f7d783b4ac9392a1522780083edaae0440a1160509")


def _run(rounds=QUICK_ROUNDS):
    env = Environment()
    probe = _vm_churn(env, rounds)
    env.run()
    return probe()


def test_fewer_events_than_seed_stack_same_end_state(run_once):
    scale = "full" if full_sweep() else "quick"
    _, events, _, state = run_once(_time_once, "vm_churn",
                                   getattr(SCENARIOS["vm_churn"], scale))
    reduction = 1 - events / SEED_EVENTS[scale]
    assert reduction > 0.5
    if full_sweep():
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()).hexdigest()
        assert digest == FULL_STATE_SHA256
    procs = state["procs"]
    assert all(p is not None for p in procs)
    # The scenario really exercised the indexed paths on every process.
    assert all(p["faults"] > 0 for p in procs)
    assert all(p["pins"] > 0 for p in procs)
    assert all(p["invalidations"] > 0 for p in procs)
    assert sum(p["notifier_unpins"] for p in procs) > 0
    assert sum(p["reuse_hits"] for p in procs) > 0
    assert sum(p["swapins"] for p in procs) > 0
    assert sum(p["cow_breaks"] for p in procs) > 0
    print()
    print(f"vm_churn: {reduction:.1%} fewer events than the seed stack")


def test_quick_sim_state_matches_committed_reference():
    # The CI drift gate's reference: regenerate and compare exactly — the
    # simulation is deterministic, so equality is the bar, not 2%.
    committed = json.loads(
        Path(__file__).with_name("vm_sim_quick.json").read_text())
    assert _run(rounds=committed["rounds"]) == committed["state"]
