"""The switch fabric's one delivery path: injector verdicts, shared
per-(carry instant, extra delay) delivery timers, and the fault soaks whose
digests depend on both."""

import json
from pathlib import Path

import pytest

from repro.cluster.network import Fabric, FrameVerdict
from repro.faults.chaos import run_chaos
from repro.faults.torture import run_torture
from repro.hw import MYRI_10G, EthernetFrame, Nic, NicSpec
from repro.sim import Environment

LATENCY = 1_000
GOLDENS = Path(__file__).resolve().parents[2] / "benchmarks/e2e/goldens.json"


class _BySeq:
    """Injector with a fixed verdict per frame ``seq`` (None: no opinion)."""

    def __init__(self, verdicts):
        self.verdicts = verdicts

    def on_frame(self, frame, now):
        return self.verdicts.get(frame.seq)


def _frame(seq, dst="b"):
    return EthernetFrame(src="a", dst=dst, ethertype=0x1234, payload=None,
                         payload_bytes=64, seq=seq)


def _rig(spec=MYRI_10G):
    env = Environment()
    fabric = Fabric(env, latency_ns=LATENCY)
    nic = Nic(env, spec, "b")
    fabric.attach(nic)
    seen = []
    deliver = nic.deliver

    def record(frame):
        seen.append((env.now, frame.seq))
        deliver(frame)

    nic.deliver = record
    return env, fabric, nic, seen


def _counts(fabric):
    dropped = {reason: cell.value for reason, cell in fabric._dropped.items()}
    return (fabric.frames_carried.value, dropped,
            fabric._m_duplicated.value, fabric._m_delayed.value)


def test_one_instant_mixed_verdicts_arrive_at_carry_plus_latency_plus_delay():
    env, fabric, _, seen = _rig()
    fabric.add_fault_injector(_BySeq({
        2: FrameVerdict(extra_delay_ns=500),
        3: FrameVerdict(duplicate=True),
        4: FrameVerdict(drop=True),
        6: FrameVerdict(duplicate=True, extra_delay_ns=500),
    }))
    for seq in (1, 2, 3, 4):
        fabric.carry(_frame(seq))
    fabric.carry(_frame(5, dst="nowhere"))
    for seq in (6, 7):
        fabric.carry(_frame(seq))
    env.run()
    # Copies of one frame arrive back to back; each instant in carry order.
    assert seen == [(LATENCY, 1), (LATENCY, 3), (LATENCY, 3), (LATENCY, 7),
                    (LATENCY + 500, 2), (LATENCY + 500, 6),
                    (LATENCY + 500, 6)]
    assert _counts(fabric) == (5, {"fault": 1, "no_route": 1}, 2, 2)
    # One timer per (carry instant, extra delay): two heap events.
    assert env.events_processed == 2


def test_later_carry_landing_on_the_same_instant_comes_after():
    env, fabric, _, seen = _rig()
    fabric.add_fault_injector(_BySeq({1: FrameVerdict(extra_delay_ns=300)}))
    fabric.carry(_frame(1))            # carried at 0, arrives at 1300
    env.run(until=300)
    fabric.carry(_frame(2))            # carried at 300, arrives at 1300
    fabric.carry(_frame(3))
    env.run()
    assert seen == [(LATENCY + 300, 1), (LATENCY + 300, 2),
                    (LATENCY + 300, 3)]


def test_injector_chain_accumulates_copies_and_delay_and_drop_wins():
    env, fabric, _, seen = _rig()
    fabric.add_fault_injector(_BySeq({
        1: FrameVerdict(duplicate=True, extra_delay_ns=100),
        2: FrameVerdict(duplicate=True)}))
    fabric.add_fault_injector(_BySeq({
        1: FrameVerdict(duplicate=True, extra_delay_ns=200),
        2: FrameVerdict(drop=True, drop_reason="burst")}))
    fabric.carry(_frame(1))
    fabric.carry(_frame(2))
    env.run()
    assert seen == [(LATENCY + 300, 1)] * 3
    assert _counts(fabric) == (1, {"burst": 1}, 2, 1)


def test_zero_latency_batch_fires_within_its_carry_instant():
    env = Environment()
    fabric = Fabric(env, latency_ns=0)
    nic = Nic(env, MYRI_10G, "b")
    fabric.attach(nic)
    seen = []
    nic.deliver = lambda frame: seen.append((env.now, frame.seq))

    def sender():
        fabric.carry(_frame(1))
        yield env.timeout(0)  # the first batch flushes here
        fabric.carry(_frame(2))

    env.process(sender())
    env.run()
    assert seen == [(0, 1), (0, 2)]


def test_ring_pressure_changes_drops_not_arrival_instants():
    spec = NicSpec(rx_ring_entries=16)

    def run(pressure):
        env, fabric, nic, seen = _rig(spec)
        nic.ring_pressure = pressure
        fabric.add_fault_injector(_BySeq({
            seq: FrameVerdict(extra_delay_ns=700) for seq in (2, 5)}))
        for seq in range(1, 7):
            fabric.carry(_frame(seq))
        env.run()
        return seen, nic.rx_frames.value, nic.rx_ring_drops.value

    seen, accepted, drops = run(0)
    pressured, p_accepted, p_drops = run(spec.rx_ring_entries - 2)
    assert pressured == seen
    assert (accepted, drops) == (6, 0)
    assert (p_accepted, p_drops) == (2, 4)


def _golden(workload, name):
    return json.loads(GOLDENS.read_text())[workload][name][0]


# Plans that mix duplication, reordering delay and RX ring pressure.
@pytest.mark.parametrize("seed", [1, 6, 12, 17])
def test_chaos_digest_matches_golden(seed):
    result = run_chaos(seed, steps=12)
    assert result.digest.startswith(_golden("chaos_soak", f"chaos/{seed}"))


@pytest.mark.parametrize("seed", [4, 5])
def test_torture_digest_matches_golden(seed):
    result = run_torture(seed, steps=10)
    assert result.digest.startswith(_golden("pin_torture", f"torture/{seed}"))
