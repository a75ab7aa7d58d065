"""Full-stack Open-MX under the PDES coordinator: byte-identity across
shard counts, partition strategies, builder sub-cluster construction, the
``openmx_shard`` A/B's end-state gate and report, and the shard-count
resolution helpers."""

import dataclasses

import pytest

from repro.cluster.builder import build_cluster, nic_address, partition_hosts
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.sim.openmx_shard import (
    OpenmxParams,
    OpenmxShard,
    expected_count,
    make_plan,
    openmx_params,
    run_openmx,
    run_openmx_ab,
    schedule,
    traffic_matrix,
)
from repro.sim.pdes import SeededFaultPlan, host_core_count, resolve_shards

SMALL = OpenmxParams(nhosts=5, rounds=3, seed=11)


# -- pure schedule helpers ----------------------------------------------------

def test_schedule_is_pure_and_self_excluding():
    for h in range(SMALL.nhosts):
        sched = schedule(SMALL, h)
        assert sched == schedule(SMALL, h)
        assert len(sched) == SMALL.rounds
        for gap, peer, size in sched:
            assert SMALL.min_gap_ns <= gap < SMALL.max_gap_ns
            assert 0 <= peer < SMALL.nhosts and peer != h
            assert size in SMALL.sizes


def test_expected_count_totals_match_schedules():
    total = sum(expected_count(SMALL, h) for h in range(SMALL.nhosts))
    assert total == SMALL.nhosts * SMALL.rounds


def test_traffic_matrix_sums_scheduled_bytes():
    traffic = traffic_matrix(SMALL)
    assert sum(traffic.values()) == sum(
        size for h in range(SMALL.nhosts)
        for _gap, _peer, size in schedule(SMALL, h))
    assert all(src != dst for src, dst in traffic)


# -- byte identity across shard counts ---------------------------------------

@pytest.mark.parametrize("pinning_mode", list(PinningMode),
                         ids=lambda m: m.name)
def test_every_shard_count_matches_serial(pinning_mode):
    params = dataclasses.replace(SMALL, pinning_mode=pinning_mode)
    serial = run_openmx(params, 1, mode="inline")
    for nshards in (2, 3, 5):
        sharded = run_openmx(params, nshards, mode="inline")
        assert sharded["state"] == serial["state"]
        assert sharded["state"]["events"] == serial["state"]["events"]


def test_fork_workers_match_inline_serial():
    serial = run_openmx(SMALL, 1, mode="inline")
    sharded = run_openmx(SMALL, 2, mode="fork")
    assert sharded["state"] == serial["state"]


def test_faulted_run_matches_serial_across_shards():
    params = OpenmxParams(nhosts=4, rounds=3, seed=3,
                          fault=SeededFaultPlan(seed=9, drop_per_mille=40,
                                                dup_per_mille=20,
                                                delay_per_mille=60))
    serial = run_openmx(params, 1, mode="inline")
    sharded = run_openmx(params, 2, mode="inline")
    assert sharded["state"] == serial["state"]
    # Chaos actually engaged, and the workload still terminated.
    assert serial["state"]["fabric"]["dropped"] > 0
    assert serial["state"]["now_ns"] > 0


def test_clean_run_delivers_everything():
    state = run_openmx(SMALL, 2, mode="inline")["state"]
    for host in state["hosts"]:
        assert host["sends_ok"] == SMALL.rounds
        assert host["recvs_ok"] == host["expected"]
        assert host["recvs_cancelled"] == 0
    assert state["fabric"]["dropped"] == 0


def test_partition_strategies_share_one_digest():
    golden = run_openmx(SMALL, 1, mode="inline")["state"]
    cross = {}
    for strategy in ("block", "stripe", "affinity"):
        out = run_openmx(SMALL, 2, mode="inline", strategy=strategy)
        assert out["state"] == golden
        assert out["stats"]["strategy"] == strategy
        cross[strategy] = out["stats"]["cross_shard_frames"]
    # Affinity reads the real traffic matrix; it must never do worse than
    # the traffic-blind layouts on this fixed scenario.
    assert cross["affinity"] <= cross["block"]
    assert cross["affinity"] <= cross["stripe"]


def test_lookahead_must_respect_fabric_latency():
    with pytest.raises(ValueError):
        run_openmx(SMALL, 2, mode="inline",
                   lookahead_ns=SMALL.latency_ns + 1)
    half = SMALL.latency_ns // 2
    out = run_openmx(SMALL, 2, mode="inline", lookahead_ns=half)
    # Same lookahead -> identical end state, clock included.
    assert out["state"] == run_openmx(SMALL, 1, mode="inline",
                                      lookahead_ns=half)["state"]
    # Across lookaheads only the final clock may differ (it parks at the
    # last window boundary); everything simulated is identical.
    full = run_openmx(SMALL, 1, mode="inline")["state"]
    assert out["state"]["hosts"] == full["hosts"]
    assert out["state"]["events"] == full["events"]
    assert out["state"]["fabric"] == full["fabric"]


# -- parameter validation -----------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        OpenmxParams(nhosts=1)
    with pytest.raises(ValueError):
        OpenmxParams(latency_ns=0)
    with pytest.raises(ValueError):
        OpenmxParams(window=0)
    with pytest.raises(ValueError):
        OpenmxParams(fault=SeededFaultPlan(seed=1, delay_quantum_ns=2_000,
                                           max_delay_quanta=10**6))


def test_canned_params_shapes():
    quick = openmx_params(quick=True)
    full = openmx_params(quick=False)
    assert quick.nhosts == full.nhosts == 16
    assert quick.rounds < full.rounds
    assert openmx_params(fault_seed=3).fault is not None


# -- builder sub-cluster construction -----------------------------------------

def test_builder_shard_plan_builds_only_local_hosts():
    plan = partition_hosts(5, 2)
    cluster = build_cluster(nhosts=5, shard_plan=plan, shard_id=1,
                            config=OpenMXConfig())
    assert cluster.host_ids == plan.shards[1]
    assert len(cluster.nodes) == len(plan.shards[1])
    for h, node in zip(cluster.host_ids, cluster.nodes):
        # Global names survive sharding — NIC addresses must match the
        # serial build exactly or cross-shard routing breaks.
        assert node.host.nic.address == nic_address(h)
        assert cluster.node(h) is node


def test_builder_rejects_fault_without_plan_and_plan_mismatch():
    with pytest.raises(ValueError):
        build_cluster(nhosts=2, shard_fault=SeededFaultPlan(seed=1))
    with pytest.raises(ValueError):
        build_cluster(nhosts=3, shard_plan=partition_hosts(4, 2))


def test_openmx_shard_end_state_is_partition_independent_shape():
    plan = partition_hosts(SMALL.nhosts, 2)
    shard = OpenmxShard(0, plan, SMALL)
    shard.run_window(10_000)
    state = shard.end_state()
    assert set(state) == {"now_ns", "events", "hosts", "fabric"}
    assert set(state["fabric"]) == {"carried", "dropped", "duplicated",
                                    "delayed", "delivered"}


# -- the openmx_shard A/B: end-state gate and report -------------------------

def _fake_run_openmx(diverges=lambda shards, strategy: False,
                     cross=lambda strategy: 2):
    def fake_run(params, shards, *, mode=None, lookahead_ns=None,
                 strategy="block"):
        state = {"now_ns": 7, "events": 100, "digest": "d"}
        if diverges(shards, strategy):
            state["events"] += 1
        return {"state": state,
                "stats": {"wall_s": 1.0, "critical_path_s": 0.5,
                          "windows": 3, "cross_shard_frames": cross(strategy),
                          "barrier_idle_s": 0.1,
                          "busy_s_by_shard": [0.5] * shards,
                          "idle_s_by_shard": [0.1 / shards] * shards,
                          "coordinator_wait_s": 0.2}}
    return fake_run


@pytest.mark.parametrize("diverges, key", [
    (lambda shards, strategy: shards > 1, "serial_vs_4_shards.events"),
    (lambda shards, strategy: strategy == "stripe", "serial_vs_stripe.events"),
], ids=["sharded", "strategy"])
def test_ab_divergence_names_the_differing_key(monkeypatch, diverges, key):
    monkeypatch.setattr("repro.sim.openmx_shard.run_openmx",
                        _fake_run_openmx(diverges=diverges))
    with pytest.raises(SystemExit) as exc:
        run_openmx_ab(quick=True, shards=4, repeat=1)
    message = str(exc.value)
    assert f"{key}: base=100 current=101" in message
    assert "digest" not in message and "now_ns" not in message


@pytest.mark.parametrize("shards, frames, cuts", [
    # One shard: no frame crosses, so affinity cuts nothing.
    (1, {"block": 0, "stripe": 0, "affinity": 0}, (0.0, 0.0)),
    (4, {"block": 8, "stripe": 4, "affinity": 2}, (0.75, 0.5)),
], ids=["no-cross-shard-frames", "cross-shard-frames"])
def test_ab_affinity_cut(monkeypatch, shards, frames, cuts):
    monkeypatch.setattr("repro.sim.openmx_shard.run_openmx",
                        _fake_run_openmx(cross=frames.__getitem__))
    report = run_openmx_ab(quick=True, shards=shards, repeat=1)
    assert report["strategies"] == frames
    assert (report["affinity_cut_vs_block"],
            report["affinity_cut_vs_stripe"]) == cuts


def test_ab_at_one_shard_skips_the_strategy_reruns(monkeypatch):
    # Every strategy partitions one shard the same way, so the forked run
    # stands in for the block, stripe and affinity runs; the report keeps
    # the keys a multi-shard report has.
    fake = _fake_run_openmx()
    runs = []

    def counted(params, shards, **kwargs):
        runs.append((shards, kwargs.get("strategy", "block")))
        return fake(params, shards, **kwargs)

    monkeypatch.setattr("repro.sim.openmx_shard.run_openmx", counted)
    one = run_openmx_ab(quick=True, shards=1, repeat=1)
    assert runs == [(1, "block"), (1, "block")]
    runs.clear()
    four = run_openmx_ab(quick=True, shards=4, repeat=1)
    assert runs == [(1, "block"), (4, "block"), (4, "block"), (4, "stripe"),
                    (4, "affinity")]
    assert set(one) == set(four)
    assert set(one["strategies"]) == set(four["strategies"])


# -- shard-count resolution (--shards auto) -----------------------------------

def test_resolve_shards_accepts_ints_and_strings():
    assert resolve_shards(3) == 3
    assert resolve_shards("2") == 2
    with pytest.raises(ValueError):
        resolve_shards("0")
    with pytest.raises(ValueError):
        resolve_shards("lots")


def test_resolve_shards_auto_caps_at_host_cores():
    cores = host_core_count()
    assert cores >= 1
    auto = resolve_shards("auto", default=4)
    assert auto == max(1, min(4, cores))
    assert resolve_shards("auto", default=1) == 1
