"""Benchmark + equivalence guardrails for the conservative-PDES scenario.

The contract under test: partitioning ``openmx_shard`` (the full Open-MX
stack) across forked shard workers simulates *exactly* the same world as
the serial run — identical end-state digest for every shard count — while
the coordinator's critical path (slowest shard per window, CPU time)
shrinks with the shard count, which is the wall-time win on a multi-core
host.
"""

import json
from pathlib import Path

from repro.sim.openmx_shard import (
    openmx_params,
    openmx_sim_state,
    run_openmx,
    run_openmx_ab,
)

from benchmarks.conftest import full_sweep

OPENMX_QUICK_STATE = Path(__file__).with_name("openmx_shard_quick.json")


def test_openmx_ab_identical_end_state():
    # Raises SystemExit if serial and sharded full-stack runs disagree on
    # any end-state byte, for any partition strategy.
    report = run_openmx_ab(quick=not full_sweep(), shards=4, repeat=1)
    assert report["shards"] == 4
    assert report["nhosts"] >= 16
    assert report["windows"] > 1
    assert report["cross_shard_frames"] > 0
    assert report["critical_path_s"] > 0
    assert isinstance(report["core_starved"], bool)
    assert report["strategies"]["affinity"] <= report["strategies"]["block"]
    print()
    print(f"openmx_shard: serial {report['serial_wall_s']:.3f}s vs "
          f"4 shards {report['sharded_wall_s']:.3f}s "
          f"({report['speedup']:.2f}x wall on {report['host_cores']} "
          f"core(s), {report['critical_path_speedup']:.2f}x critical path; "
          f"affinity cut {report['affinity_cut_vs_block']:.1%} vs block)")


def test_openmx_every_shard_count_lands_on_one_digest():
    params = openmx_params(quick=True)
    serial = run_openmx(params, 1, mode="inline")
    for n in (2, 4, 8):
        sharded = run_openmx(params, n, mode="inline")
        assert sharded["state"] == serial["state"]
        assert sharded["state"]["events"] == serial["state"]["events"]


def test_openmx_critical_path_shrinks_with_shards():
    params = openmx_params(quick=not full_sweep())
    serial = run_openmx(params, 1)
    sharded = run_openmx(params, 4)
    assert sharded["state"]["digest"] == serial["state"]["digest"]
    assert sharded["state"]["events"] == serial["state"]["events"]
    assert (sharded["stats"]["critical_path_s"]
            < serial["stats"]["critical_path_s"])


def test_openmx_committed_quick_state_matches_current_tree():
    committed = json.loads(OPENMX_QUICK_STATE.read_text())
    fresh = openmx_sim_state(quick=True, shards=committed["shards"])
    assert fresh == committed, (
        "openmx_shard end state changed — if intentional, regenerate with "
        "PYTHONPATH=src python -m repro.sim.bench --quick --shards "
        f"{committed['shards']} --sim-json benchmarks/openmx_shard_quick.json "
        "openmx_shard"
    )
