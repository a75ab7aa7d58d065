"""Pinned registry totals of one small, fully drained run.

``benchmarks/metrics_quick.json`` is the ``repro.obs`` snapshot of
:func:`quick_snapshot` with the wall-clock families removed.  Every
simulation in the run drains to quiescence, so each count is final and
does not depend on *when* an owner bumps it.  The run reaches a nonzero
total for every counter family that a per-layer owner stores, so a store
that stops counting (or counts twice) changes the file.

Regenerate, after a deliberate change to what is counted, with::

    PYTHONPATH=src python -m tests.obs.test_metrics_quick
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.cluster import build_cluster
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricRegistry, use_registry
from repro.openmx import OpenMXConfig, PinningMode
from repro.sim.openmx_shard import openmx_params, run_openmx
from repro.util.units import MILLISECOND

ROOT = Path(__file__).resolve().parents[2]
PINNED = ROOT / "benchmarks" / "metrics_quick.json"
DOCS = ROOT / "docs" / "observability.md"

#: Families measured in host seconds; they differ on every run.
WALL_CLOCK = ("sim_wall_time_us", "sim_events_per_sec", "pdes_barrier_wait_us")

#: Families outside the pinned run: the torture suite's private registry.
UNPINNED = ("torture_recovery_ns",)

#: Counter families kept by per-layer owners; the run must reach each one.
OWNED_COUNTERS = (
    "nic_tx_frames", "nic_tx_bytes", "nic_rx_frames", "nic_rx_bytes",
    "nic_rx_ring_drops",
    "softirq_bh_runs", "softirq_frames_processed", "softirq_ksoftirqd_rounds",
    "kernel_pin_failures", "kernel_pin_queue_timeouts",
    "fabric_frames_carried", "fabric_frames_dropped",
    "pdes_frames_local", "pdes_frames_cross_shard", "pdes_frames_dropped",
    "fault_injections",
    "omx_overlap_miss_send", "omx_pin_failed", "omx_region_cache_hit",
)


def _exchange(cluster, pairs, nbytes, tag0):
    """Start one concurrent ``nbytes`` isend/irecv pair per
    ``(src_node, src_proc, dst_node, dst_proc)`` entry of ``pairs``."""
    env = cluster.env
    for i, (sn, sp, dn, dp) in enumerate(pairs):
        slib, rlib = cluster.lib(sn, sp), cluster.lib(dn, dp)
        sproc, rproc = cluster.nodes[sn].procs[sp], cluster.nodes[dn].procs[dp]
        sbuf, rbuf = sproc.malloc(nbytes), rproc.malloc(nbytes)
        sproc.write(sbuf, bytes(i % 251 for i in range(nbytes)))
        tag = tag0 + i

        def sender(slib=slib, rlib=rlib, sbuf=sbuf, tag=tag):
            req = yield from slib.isend(sbuf, nbytes, rlib.board,
                                        rlib.endpoint_id, tag)
            yield from slib.wait(req)

        def receiver(rlib=rlib, rbuf=rbuf, tag=tag):
            req = yield from rlib.irecv(rbuf, nbytes, tag)
            yield from rlib.wait(req)

        env.process(sender())
        env.process(receiver())


def _burst(cluster, src, dst, count, nbytes, tag0):
    """``count`` back-to-back eager sends from ``src`` to ``dst``
    (``(node, proc)`` pairs), all posted before the first wait."""
    env = cluster.env
    slib, rlib = cluster.lib(*src), cluster.lib(*dst)
    sbuf = cluster.nodes[src[0]].procs[src[1]].malloc(nbytes)
    rbuf = cluster.nodes[dst[0]].procs[dst[1]].malloc(nbytes * count)

    def sender():
        reqs = []
        for i in range(count):
            reqs.append((yield from slib.isend(sbuf, nbytes, rlib.board,
                                               rlib.endpoint_id, tag0 + i)))
        for req in reqs:
            yield from slib.wait(req)

    def receiver():
        reqs = []
        for i in range(count):
            reqs.append((yield from rlib.irecv(rbuf + i * nbytes, nbytes,
                                               tag0 + i)))
        for req in reqs:
            yield from rlib.wait(req)

    env.process(sender())
    env.process(receiver())


def _clean_cluster(registry) -> None:
    """Fault-free rendezvous in both directions at once: the fabric's
    batched fast path."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE),
        metrics=registry)
    _exchange(cluster, [(0, 0, 1, 0), (1, 0, 0, 0)], 256 * 1024, tag0=1)
    cluster.env.run()


def _faulted_cluster(registry) -> None:
    """Loss, reordering, duplication, RX-ring pressure, pin faults and a
    pin budget too small for two regions at once, on three hosts."""
    config = OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE,
                          resend_timeout_ns=2 * MILLISECOND,
                          max_resend_rounds=4, pin_queue_enabled=True,
                          pin_queue_wait_max_ns=20_000)
    cluster = build_cluster(nhosts=3, procs_per_host=2, config=config,
                            metrics=registry)
    for node in cluster.nodes:
        node.host.memory.max_pinned = 100
    FaultPlan(seed=3, bernoulli_loss=0.02, reorder_prob=0.05,
              duplicate_prob=0.03, ring_pressure=1016, pin_fail_prob=0.3,
              pin_max_failures=2).apply(cluster)
    _exchange(cluster, [(0, 0, 1, 0), (0, 1, 1, 1)], 256 * 1024, tag0=1)
    # Two hosts flood host1 at once: its 8 live RX descriptors overflow.
    _burst(cluster, (0, 0), (1, 0), 96, 8192, tag0=1000)
    _burst(cluster, (2, 0), (1, 1), 96, 8192, tag0=2000)
    cluster.env.run()


def quick_snapshot() -> dict:
    """Run the small scenario set and return its snapshot, wall-clock
    families removed, in JSON form."""
    registry = MetricRegistry()
    with use_registry(registry):
        _clean_cluster(registry)
        _faulted_cluster(registry)
        # Two PDES shards driven inline, with a seeded fault plan.
        run_openmx(openmx_params(quick=True, nhosts=4, fault_seed=7), 2,
                   mode="inline", registry=registry)
    snap = registry.snapshot()
    for name in WALL_CLOCK:
        snap["metrics"].pop(name, None)
    return json.loads(json.dumps(snap))


def _total(family: dict) -> float:
    return sum(s.get("value", s.get("count", 0)) for s in family["samples"])


def test_quick_snapshot_matches_the_pinned_totals():
    assert quick_snapshot() == json.loads(PINNED.read_text())


def test_pinned_run_reaches_every_owned_counter():
    metrics = json.loads(PINNED.read_text())["metrics"]
    missing = [name for name in OWNED_COUNTERS
               if name not in metrics or not _total(metrics[name])]
    assert not missing


def test_every_pinned_family_is_documented():
    documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", DOCS.read_text()))
    names = (set(json.loads(PINNED.read_text())["metrics"])
             | set(WALL_CLOCK) | set(UNPINNED))
    # The omx_* driver counters are documented by pattern, not one by one.
    undocumented = sorted(n for n in names
                          if n not in documented and not n.startswith("omx_"))
    assert not undocumented


if __name__ == "__main__":
    PINNED.write_text(json.dumps(quick_snapshot(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {PINNED}")
