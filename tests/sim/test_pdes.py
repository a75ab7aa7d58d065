"""Conservative-lookahead PDES: shard fabric, window math, worker plumbing.

The contract under test (see :mod:`repro.sim.pdes`): the shard fabric
delivers same-instant arrivals in a canonical order whether they were
carried locally or ingested at a window barrier, and refuses ingress that
would rewrite the past; the coordinator's window sequence is a pure
function of global event times; in fork mode the coordinator runs shard
0 itself; and a failing, dead or hung shard worker is reported with its
shard id, a hung one within its reply deadline.  Byte-identity of the
full-stack scenario across shard counts lives in
``tests/sim/test_openmx_shard.py``.
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
from repro.sim import SimulationError, pdes
from repro.sim.openmx_shard import OpenmxParams, _OpenmxFactory, run_openmx
from repro.sim.pdes import SeededFaultPlan, _ForkHandle, run_partitioned

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
    fabric.carry(_frame(2, 0, 1))
    fabric.carry(_frame(1, 0, 2))
    fabric.carry(_frame(1, 0, 1))
    env.run()
    a1, a2 = nic_address(1), nic_address(2)
    assert seen == [(LATENCY, a1, 1), (LATENCY, a1, 2), (LATENCY, a2, 1)]
    assert fabric.frames_delivered == 3
    # One flush timer per (arrival, dst): 3 frames, 1 engine event.
    assert env.events_processed == 1


def test_shard_fabric_routes_remote_hosts_to_egress():
    _, fabric, _ = _shard(((0,), (1,)), 0)
    frame = _frame(0, 1, 1)
    fabric.carry(frame)
    assert fabric.frames_cross_shard.value == 1 and fabric.frames_local.value == 0
    egress = fabric.take_egress()
    assert [(a, c.src, c.dst, c.seq, c.copy) for a, c in egress] == [
        (LATENCY, 0, 1, 1, 0)]
    assert egress[0][1].frame is frame  # the real frame rides inside
    assert fabric.take_egress() == []  # drained


def test_shard_fabric_ingress_merges_with_local_sends():
    _, tx, _ = _shard(((1,), (0, 2)), 0)
    rx_env, rx, rx_nics = _shard(((1,), (0, 2)), 1)
    seen = _record(rx_nics[0])
    tx.carry(_frame(1, 0, 1))   # remote: arrives via egress
    rx.carry(_frame(2, 0, 1))   # local: same arrival instant
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
    return _ForkHandle(shard_id, plan, _OpenmxFactory(SMALL), [])


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


class _FailingFactory:
    """Builds the SMALL scenario's shards, except that ``bad`` raises."""

    def __init__(self, bad: int) -> None:
        self.bad = bad

    def __call__(self, shard_id, plan):
        if shard_id == self.bad:
            raise ValueError(f"cannot build shard {shard_id}")
        return _OpenmxFactory(SMALL)(shard_id, plan)


def _fail_shard_one(nshards):
    # The other shards survive shard 1's failure.  Each must see EOF once
    # the coordinator closes its ends: a worker that kept a copy of its own
    # or an earlier shard's coordinator end would make close() wait out its
    # join timeout.
    before = set(multiprocessing.active_children())
    plan = partition_hosts(SMALL.nhosts, nshards)
    start = time.monotonic()
    with pytest.raises(
            SimulationError,
            match=r"(?s)PDES shard 1 worker failed:.*Traceback.*"
                  r"ValueError: cannot build shard 1"):
        run_partitioned(_FailingFactory(1), plan,
                        lookahead_ns=SMALL.latency_ns, mode="fork")
    assert time.monotonic() - start < 5
    assert set(multiprocessing.active_children()) - before == set()


def test_forked_factory_error_names_shard_and_reaps_workers():
    _fail_shard_one(2)


def test_forked_factory_error_returns_promptly_at_four_shards():
    _fail_shard_one(4)


def test_inline_factory_error_names_shard_and_chains_cause():
    plan = partition_hosts(SMALL.nhosts, 2)
    with pytest.raises(
            SimulationError,
            match=r"PDES shard 0 factory failed: "
                  r"ValueError: cannot build shard 0") as info:
        run_partitioned(_FailingFactory(0), plan,
                        lookahead_ns=SMALL.latency_ns, mode="inline")
    assert isinstance(info.value.__cause__, ValueError)


def _assert_reaped(before):
    assert set(multiprocessing.active_children()) == before


def test_forked_shard_zero_factory_error_names_it_and_reaps_workers():
    # Shard 0 is built here, after the other shards' workers are forked.
    before = set(multiprocessing.active_children())
    plan = partition_hosts(SMALL.nhosts, 4)
    start = time.monotonic()
    with pytest.raises(SimulationError,
                       match=r"PDES shard 0 factory failed: "
                             r"ValueError: cannot build shard 0"):
        run_partitioned(_FailingFactory(0), plan,
                        lookahead_ns=SMALL.latency_ns, mode="fork")
    assert time.monotonic() - start < 5
    _assert_reaped(before)


class _StaleIngressFactory:
    """Builds the SMALL scenario's shards; shard 0's every ingress then
    carries a frame arriving at its own clock, which its fabric refuses."""

    def __call__(self, shard_id, plan):
        shard = _OpenmxFactory(SMALL)(shard_id, plan)
        if shard_id == 0:
            stale = EtherCrossing(src=4, dst=0, seq=1, copy=0,
                                  frame=_frame(4, 0, 1))
            shard.ingress = lambda entries: shard.fabric.ingress(
                [(shard.env.now, stale)])
        return shard


def test_error_in_hosted_shard_window_reaps_workers():
    before = set(multiprocessing.active_children())
    plan = partition_hosts(SMALL.nhosts, 3)
    start = time.monotonic()
    with pytest.raises(SimulationError, match="conservative window"):
        run_partitioned(_StaleIngressFactory(), plan,
                        lookahead_ns=SMALL.latency_ns, mode="fork")
    assert time.monotonic() - start < 5
    _assert_reaped(before)


class _PidShard:
    """A shard with one window of no work that records the pids it was
    built and run in.  Shard 0's window waits for shard 1's to start; the
    factory's ``sleepy`` shard sleeps through its window."""

    def __init__(self, shard_id, plan, factory):
        self.shard_id = shard_id
        self.host = plan.shards[shard_id][0]
        self.factory = factory
        self.pids = [os.getpid()]
        self.saw_shard_one_run = None
        self.now = 0
        self.registry = MetricRegistry()

    def next_time(self):
        return 0 if len(self.pids) == 1 else None

    def ingress(self, entries):
        assert entries == []

    def run_window(self, until):
        if self.shard_id == 1:
            self.factory.shard_one_runs.set()
        elif self.shard_id == 0:
            self.saw_shard_one_run = self.factory.shard_one_runs.wait(5)
        if self.shard_id == self.factory.sleepy:
            time.sleep(self.factory.sleep_s)
        self.pids.append(os.getpid())
        self.now = until
        return [], None, 0.0

    def end_state(self):
        return {"now_ns": self.now, "events": 0,
                "hosts": [{"id": self.host, "pids": self.pids,
                           "saw_shard_one_run": self.saw_shard_one_run}]}


class _PidFactory:
    def __init__(self, sleepy=None, sleep_s=0.0):
        self.sleepy = sleepy
        self.sleep_s = sleep_s
        # Shared with the forked workers, which inherit it.
        self.shard_one_runs = multiprocessing.get_context("fork").Event()

    def __call__(self, shard_id, plan):
        return _PidShard(shard_id, plan, self)


def test_fork_mode_runs_shard_zero_in_the_coordinator():
    plan = partition_hosts(4, 3)
    out = run_partitioned(_PidFactory(), plan, lookahead_ns=LATENCY,
                          mode="fork")
    hosts = out["state"]["hosts"]
    # Shard 1 got its window command before shard 0 ran here.
    assert hosts[0]["saw_shard_one_run"] is True
    pids = [host["pids"] for host in hosts]
    me = os.getpid()
    assert pids[0] == [me, me]
    assert all(built == ran != me for built, ran in pids[1:])
    assert len({built for built, _ in pids[1:]}) == 2
    stats = out["stats"]
    assert stats["windows"] == 1
    assert len(stats["busy_s_by_shard"]) == len(stats["idle_s_by_shard"]) == 3
    assert stats["coordinator_wait_s"] > 0


def test_hung_worker_misses_its_reply_deadline(monkeypatch):
    monkeypatch.setattr(pdes, "REPLY_DEADLINE_S", 0.5)
    before = set(multiprocessing.active_children())
    plan = partition_hosts(4, 3)
    start = time.monotonic()
    with pytest.raises(SimulationError,
                       match=r"PDES shard 2 worker missed the 0\.5 s reply "
                             r"deadline in window 0; terminated it"):
        run_partitioned(_PidFactory(sleepy=2, sleep_s=60), plan,
                        lookahead_ns=LATENCY, mode="fork")
    assert time.monotonic() - start < 5
    _assert_reaped(before)
