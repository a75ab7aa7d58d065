"""Conservative-lookahead PDES: shard fabric, window math, worker plumbing.

The contract under test (see :mod:`repro.sim.pdes`): the shard fabric
delivers same-instant arrivals in a canonical order whether they were
carried locally or ingested at a window barrier, and refuses ingress that
would rewrite the past; the coordinator's window sequence is a pure
function of global event times; and a failing or dead shard worker is
reported with its shard id.  Byte-identity of the full-stack scenario
across shard counts lives in ``tests/sim/test_openmx_shard.py``.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.cluster.builder import (
    ShardPlan,
    build_cluster,
    nic_address,
    partition_hosts,
)
from repro.cluster.network import EtherCrossing
from repro.hw.nic import EthernetFrame, Nic
from repro.kernel import ETH_P_OMX
from repro.obs.metrics import MetricRegistry
from repro.openmx.config import OpenMXConfig
from repro.sim import SimulationError
from repro.sim.openmx_shard import OpenmxParams, _OpenmxFactory, run_openmx
from repro.sim.pdes import SeededFaultPlan, _ForkHandle

SMALL = OpenmxParams(nhosts=5, rounds=3, seed=11)
LATENCY = 101


# -- partitioning -------------------------------------------------------------


def test_block_partition_is_contiguous_and_balanced():
    plan = partition_hosts(10, 4)
    assert plan.shards == ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9))
    assert plan.shard_of(0) == 0 and plan.shard_of(5) == 1
    assert plan.shard_of(9) == 3


def test_stripe_partition_round_robins():
    plan = partition_hosts(7, 3, strategy="stripe")
    assert plan.shards == ((0, 3, 6), (1, 4), (2, 5))


def test_partition_clamps_shards_to_hosts():
    plan = partition_hosts(2, 8)
    assert plan.nshards == 2
    assert all(plan.shards)  # no empty shard, ever


def test_partition_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partition_hosts(0, 2)
    with pytest.raises(ValueError):
        partition_hosts(4, 0)
    with pytest.raises(ValueError):
        partition_hosts(4, 2, strategy="mystery")


def test_shard_plan_validates_host_cover():
    with pytest.raises(ValueError):  # host 2 missing
        ShardPlan(nhosts=3, shards=((0,), (1,)))
    with pytest.raises(ValueError):  # host 1 assigned twice
        ShardPlan(nhosts=2, shards=((0, 1), (1,)))
    with pytest.raises(ValueError):  # host 5 out of range
        ShardPlan(nhosts=2, shards=((0, 1), (5,)))


# -- shard fabric -------------------------------------------------------------


def _shard(shards, shard_id):
    """One shard's sub-cluster: (env, ShardEtherFabric, {host: nic})."""
    nhosts = sum(len(s) for s in shards)
    cluster = build_cluster(nhosts=nhosts,
                            shard_plan=ShardPlan(nhosts=nhosts, shards=shards),
                            shard_id=shard_id, fabric_latency_ns=LATENCY,
                            config=OpenMXConfig())
    nics = {h: cluster.node(h).host.nic for h in cluster.host_ids}
    return cluster.env, cluster.fabric, nics


def _frame(src, dst, seq):
    return EthernetFrame(src=nic_address(src), dst=nic_address(dst),
                         ethertype=ETH_P_OMX, payload=None,
                         payload_bytes=64, seq=seq)


def _record(nic):
    """Swap the NIC's RX entry point for a (now, src, seq) recorder."""
    seen = []
    nic.deliver = lambda frame: seen.append(
        (nic.env.now, frame.src, frame.seq))
    return seen


def test_shard_fabric_sorts_same_instant_arrivals_canonically():
    env, fabric, nics = _shard(((0, 1, 2),), 0)
    seen = _record(nics[0])
    # Host 2 carries before host 1, and host 1's seq 2 before its seq 1;
    # delivery must come back sorted by (src, seq, copy), not carry order.
    fabric._carry(nics[2], _frame(2, 0, 1))
    fabric._carry(nics[1], _frame(1, 0, 2))
    fabric._carry(nics[1], _frame(1, 0, 1))
    env.run()
    a1, a2 = nic_address(1), nic_address(2)
    assert seen == [(LATENCY, a1, 1), (LATENCY, a1, 2), (LATENCY, a2, 1)]
    assert fabric.frames_delivered == 3
    # One flush timer per (arrival, dst): 3 frames, 1 engine event.
    assert env.events_processed == 1


def test_shard_fabric_routes_remote_hosts_to_egress():
    env, fabric, nics = _shard(((0,), (1,)), 0)
    frame = _frame(0, 1, 1)
    fabric._carry(nics[0], frame)
    assert fabric.frames_cross_shard.value == 1 and fabric.frames_local.value == 0
    egress = fabric.take_egress()
    assert [(a, c.src, c.dst, c.seq, c.copy) for a, c in egress] == [
        (LATENCY, 0, 1, 1, 0)]
    assert egress[0][1].frame is frame  # the real frame rides inside
    assert fabric.take_egress() == []  # drained


def test_shard_fabric_ingress_merges_with_local_sends():
    _, tx, tx_nics = _shard(((1,), (0, 2)), 0)
    rx_env, rx, rx_nics = _shard(((1,), (0, 2)), 1)
    seen = _record(rx_nics[0])
    tx._carry(tx_nics[1], _frame(1, 0, 1))   # remote: arrives via egress
    rx._carry(rx_nics[2], _frame(2, 0, 1))   # local: same arrival instant
    rx.ingress(tx.take_egress())
    rx_env.run()
    # Same (arrival, dst) batch, canonical (src, seq) order — and still
    # exactly one engine event for the merged batch.
    assert seen == [(LATENCY, nic_address(1), 1),
                    (LATENCY, nic_address(2), 1)]
    assert rx_env.events_processed == 1


def test_shard_fabric_rejects_past_ingress():
    env, fabric, _ = _shard(((0,), (1,)), 0)
    env.timeout(50)
    env.run(until=50)
    crossing = EtherCrossing(src=1, dst=0, seq=1, copy=0,
                             frame=_frame(1, 0, 1))
    with pytest.raises(SimulationError, match="conservative window"):
        fabric.ingress([(50, crossing)])  # arrival == now: not strictly future


def test_shard_fabric_rejects_misrouted_ingress():
    _, fabric, _ = _shard(((0,), (1,)), 0)
    crossing = EtherCrossing(src=0, dst=1, seq=1, copy=0,
                             frame=_frame(0, 1, 1))
    with pytest.raises(SimulationError, match="misrouted"):
        fabric.ingress([(500, crossing)])


def test_shard_fabric_guards_attach():
    env, fabric, nics = _shard(((0,), (1,)), 0)
    spec = nics[0].spec
    with pytest.raises(ValueError, match="duplicate"):
        fabric.attach(nics[0])
    with pytest.raises(ValueError, match="not local"):
        fabric.attach(Nic(env, spec, nic_address(1)))
    with pytest.raises(ValueError, match="host table"):
        fabric.attach(Nic(env, spec, "nowhere"))


# -- fault plan ---------------------------------------------------------------


def test_fault_plan_is_pure_and_seed_sensitive():
    plan = SeededFaultPlan(seed=42, drop_per_mille=100, dup_per_mille=100,
                           delay_per_mille=100)
    verdicts = [plan(src, dst, seq) for src in range(4) for dst in range(4)
                for seq in range(50)]
    assert verdicts == [plan(src, dst, seq) for src in range(4)
                        for dst in range(4) for seq in range(50)]
    assert any(v[0] for v in verdicts)          # some drops
    assert any(v[1] > 1 for v in verdicts)      # some duplicates
    assert any(v[2] for v in verdicts)          # some delays
    assert all(v[2] % 2 == 0 for v in verdicts)  # delays stay even
    other = SeededFaultPlan(seed=43, drop_per_mille=100, dup_per_mille=100,
                            delay_per_mille=100)
    assert verdicts != [other(src, dst, seq) for src in range(4)
                        for dst in range(4) for seq in range(50)]


def test_fault_plan_rejects_odd_delay_quantum():
    with pytest.raises(ValueError):
        SeededFaultPlan(seed=1, delay_quantum_ns=1001)


# -- coordinator --------------------------------------------------------------


def test_chaos_traffic_stays_byte_identical_across_shards():
    params = OpenmxParams(nhosts=4, rounds=3, seed=5,
                          fault=SeededFaultPlan(seed=9, drop_per_mille=40,
                                                dup_per_mille=40,
                                                delay_per_mille=100))
    serial = run_openmx(params, 1, mode="inline")
    fabric = serial["state"]["fabric"]
    # Every verdict kind bit: chaos crossing shard boundaries is the point.
    assert fabric["dropped"] and fabric["duplicated"] and fabric["delayed"]
    for nshards in (2, 3):
        assert run_openmx(params, nshards,
                          mode="inline")["state"] == serial["state"]


def test_window_sequence_is_shard_count_independent():
    a = run_openmx(SMALL, 1, mode="inline")
    b = run_openmx(SMALL, 3, mode="inline")
    assert b["stats"]["cross_shard_frames"] > 0
    assert a["stats"]["windows"] == b["stats"]["windows"]
    assert a["stats"]["advance_ns"] == b["stats"]["advance_ns"]
    assert a["state"]["now_ns"] == b["state"]["now_ns"]


def test_shorter_lookahead_changes_windows_not_behavior():
    short = run_openmx(SMALL, 2, mode="inline",
                       lookahead_ns=SMALL.latency_ns // 2)
    full = run_openmx(SMALL, 2, mode="inline")
    assert short["stats"]["windows"] > full["stats"]["windows"]
    # The final clock is the last window's end, which legitimately depends
    # on the lookahead; everything the simulation *did* must not.
    for key in ("events", "hosts", "fabric"):
        assert short["state"][key] == full["state"][key]


def test_lookahead_must_not_exceed_latency():
    with pytest.raises(ValueError):
        run_openmx(SMALL, 2, mode="inline",
                   lookahead_ns=SMALL.latency_ns + 1)
    with pytest.raises(ValueError):
        run_openmx(SMALL, 2, mode="inline", lookahead_ns=0)


def test_coordinator_counters_land_in_registry():
    registry = MetricRegistry()
    out = run_openmx(SMALL, 2, mode="inline", registry=registry)
    assert (registry.get("pdes_windows").value
            == out["stats"]["windows"])
    assert (registry.get("pdes_lookahead_ns").value
            == out["stats"]["advance_ns"])
    # Worker-side series merged in shard order: the per-shard fabric
    # cross-shard counter sums to the coordinator's routed-frame count.
    assert (registry.get("pdes_frames_cross_shard").value
            == out["stats"]["cross_shard_frames"] > 0)
    assert registry.get("pdes_barrier_wait_us").value >= 0


def _fork_handle(shard_id):
    plan = partition_hosts(SMALL.nhosts, 2)
    return _ForkHandle(shard_id, plan, _OpenmxFactory(SMALL),
                       multiprocessing.get_context("fork"))


def test_worker_errors_propagate_with_traceback():
    handle = _fork_handle(0)
    try:
        assert handle.initial_next() == 0
        crossing = EtherCrossing(src=4, dst=0, seq=1, copy=0,
                                 frame=_frame(4, 0, 1))
        handle.start_window(10, [(0, crossing)])  # arrival 0 <= now: blows
        with pytest.raises(
                SimulationError,
                match=r"(?s)shard 0 .*Traceback.*conservative window"):
            handle.finish_window()
    finally:
        handle.close()


def test_dead_worker_fails_loudly_with_its_shard_id():
    handle = _fork_handle(1)
    try:
        handle.initial_next()
        os.kill(handle.proc.pid, signal.SIGKILL)
        t0 = time.monotonic()
        with pytest.raises(SimulationError,
                           match=r"shard 1 worker died \(exit code -9\)"):
            handle.start_window(SMALL.latency_ns, [])
            handle.finish_window()
        assert time.monotonic() - t0 < 10
    finally:
        handle.close()
