"""Benchmark + equivalence guardrails for the data-path coalescing change.

The contract under test: the coalesced TX pump / fabric batch / fused-BH
stack must simulate *exactly* the same world as the per-frame seed stack
it replaced while dispatching fewer heap events — and frames a fault
injector or RX ring pressure touches ride the same batched fabric path,
again without moving a single timestamp or counter.  The seed stack is
retired; what it proved on these fixed inputs is recorded below.
"""

import hashlib
import json
from pathlib import Path

from repro.cluster.network import FrameVerdict
from repro.sim import Environment
from repro.sim.bench import SCENARIOS, _datapath_pull, _time_once

from benchmarks.conftest import full_sweep

QUICK_ROUNDS = SCENARIOS["datapath_pull"].quick

# The per-frame seed stack's event counts on this scenario, and the sha256
# of the full-scale end state it and the coalesced stack both reached.
SEED_EVENTS = {"quick": 17_404, "full": 174_004}
FULL_STATE_SHA256 = (
    "73f0287f75a0651eecaf699a91fed23a7fa6c4fa98bf1ddf03b26f051b454d65")


def _run(rounds=3, rig=None):
    """Build + run the datapath scenario; return its end state."""
    env = Environment()
    probe = _datapath_pull(env, rounds)
    if rig is not None:
        rig(probe)
    env.run()
    return probe()


def test_fewer_events_than_seed_stack_same_end_state():
    scale = "full" if full_sweep() else "quick"
    _, events, _, state = _time_once("datapath_pull",
                                     getattr(SCENARIOS["datapath_pull"], scale))
    reduction = 1 - events / SEED_EVENTS[scale]
    assert reduction > 0.5
    assert state["handled_frames"] > 0
    assert state["ksoftirqd_rounds"] > 0  # budget really trips
    if full_sweep():
        digest = hashlib.sha256(
            json.dumps(state, sort_keys=True).encode()).hexdigest()
        assert digest == FULL_STATE_SHA256
    print()
    print(f"datapath_pull: {reduction:.1%} fewer events than the seed stack")


def test_clean_run_carries_every_frame():
    state = _run()
    assert state["frames_carried"] == state["tx_frames"] > 0
    assert state["frames_dropped"] == 0


def test_no_opinion_injector_identical_results():
    # A fault injector with no opinion on any frame must not change a
    # thing.
    class NoOpinion:
        def on_frame(self, frame, now):
            return None

    clean_state = _run()
    injected_state = _run(
        rig=lambda p: p.fabric.add_fault_injector(NoOpinion()))
    assert injected_state == clean_state


def test_ring_pressure_without_drops_identical_results():
    # Phantom RX pressure small enough to cause no drops must land every
    # frame at the same instants.
    clean_state = _run()
    pressured_state = _run(
        rig=lambda p: setattr(p.rx_nic, "ring_pressure", 1))
    assert pressured_state == clean_state
    assert pressured_state["rx_ring_drops"] == 0


class _DupDelay:
    """Deterministic duplicate + extra-delay injector (no randomness)."""

    def __init__(self):
        self.count = 0

    def on_frame(self, frame, now):
        self.count += 1
        if self.count % 17 == 0:
            return FrameVerdict(duplicate=True)
        if self.count % 13 == 0:
            return FrameVerdict(extra_delay_ns=500)
        return None


# The end state the per-frame seed stack reached under _DupDelay.
SEED_FAULTED_STATE = {
    "now_ns": 1_800_000, "handled_frames": 406, "handled_bytes": 1_662_976,
    "tx_frames": 384, "tx_bytes": 1_572_864, "rx_frames": 406,
    "rx_bytes": 1_662_976, "rx_ring_drops": 0, "frames_carried": 384,
    "frames_dropped": 0, "bh_runs": 9, "frames_processed": 406,
    "ksoftirqd_rounds": 6,
}


def test_faulted_run_matches_seed_stack_bit_for_bit():
    # Duplicates and injected delay share the batched delivery timers;
    # the resulting world must be the one the seed stack simulated.
    cur_state = _run(
        rig=lambda p: p.fabric.add_fault_injector(_DupDelay()))
    assert cur_state == SEED_FAULTED_STATE
    # The injector really fired: duplicates inflate RX over TX.
    assert cur_state["rx_frames"] > cur_state["tx_frames"]


def test_quick_sim_state_matches_committed_reference():
    # The CI drift gate's reference: regenerate and compare exactly —
    # the simulation is deterministic, so equality is the bar, not 2%.
    committed = json.loads(
        Path(__file__).with_name("datapath_sim_quick.json").read_text())
    state = _run(rounds=QUICK_ROUNDS)
    assert state == committed["state"]
