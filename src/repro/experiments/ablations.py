"""Ablations for the design choices DESIGN.md calls out.

* :data:`PIPELINE_TASKS` — the Section 5 comparison: steady-state
  throughput of driver-level whole-message overlapped pinning vs
  MPICH-GM-style chunked pipelined registration of 8 MB, across chunk
  sizes.
* :data:`CAPACITY_TASKS` — the user-space region cache's LRU capacity vs
  hit rate when an application cycles through 16 buffers, more than fit.
* :data:`CHECK_TASKS` — throughput against the cost of the per-packet
  region descriptor test that overlapped pinning adds to the receive path
  (the paper argues it is negligible).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import PipelinedSender
from repro.cluster import build_cluster
from repro.experiments.parallel import Task
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import KIB, MIB, throughput_mib_s

__all__ = [
    "AblationPoint",
    "CAPACITY_TASKS",
    "CHECK_TASKS",
    "PIPELINE_TASKS",
    "cache_capacity_point",
    "format_ablations",
    "overlap_check_point",
    "overlap_point",
    "pipeline_point",
]


@dataclass(frozen=True)
class AblationPoint:
    label: str
    value: float


def _timed_transfer(cluster, nbytes, reuse, send_fn, recv_fn):
    env = cluster.env
    times = []

    def sender():
        for i in range(reuse):
            yield from send_fn(i)

    def receiver():
        for i in range(reuse):
            t0 = env.now
            yield from recv_fn(i)
            times.append(env.now - t0)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    return times[-1]


def pipeline_point(chunk: int, nbytes: int) -> AblationPoint:
    """Pipelined-registration throughput at one chunk size."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM)
    )
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, b"p" * nbytes)
    tx, rx = PipelinedSender(s, chunk), PipelinedSender(r, chunk)
    elapsed = _timed_transfer(
        cluster, nbytes, 2,
        lambda i: tx.send(sbuf, nbytes, r.board, r.endpoint_id, i * 1000),
        lambda i: rx.recv(rbuf, nbytes, i * 1000),
    )
    return AblationPoint(f"pipelined {chunk // KIB}kB chunks",
                         throughput_mib_s(nbytes, elapsed))


def overlap_point(nbytes: int) -> AblationPoint:
    """The paper's driver-level overlapped pinning, same workload."""
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP))
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, b"p" * nbytes)

    def send_once(i):
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, i)
        yield from s.wait(req)

    def recv_once(i):
        req = yield from r.irecv(rbuf, nbytes, i)
        yield from r.wait(req)

    elapsed = _timed_transfer(cluster, nbytes, 2, send_once, recv_once)
    return AblationPoint("driver-level overlap (paper)",
                         throughput_mib_s(nbytes, elapsed))


PIPELINE_TASKS: list[Task] = [
    (pipeline_point, {"chunk": chunk, "nbytes": 8 * MIB})
    for chunk in (64 * KIB, 128 * KIB, 512 * KIB, 2 * MIB)
] + [(overlap_point, {"nbytes": 8 * MIB})]


def cache_capacity_point(cap: int, nbuffers: int, nbytes: int) -> AblationPoint:
    """Hit rate cycling ``nbuffers`` buffers through an LRU of ``cap``."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE,
                            region_cache_capacity=cap)
    )
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbufs = [sp.malloc(nbytes) for _ in range(nbuffers)]
    rbuf = rp.malloc(nbytes)
    for buf in sbufs:
        sp.write(buf, b"c" * nbytes)

    def sender():
        for round_ in range(2):
            for i, buf in enumerate(sbufs):
                req = yield from s.isend(buf, nbytes, r.board,
                                         r.endpoint_id, round_ * 100 + i)
                yield from s.wait(req)

    def receiver():
        for round_ in range(2):
            for i in range(nbuffers):
                req = yield from r.irecv(rbuf, nbytes, round_ * 100 + i)
                yield from r.wait(req)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    c = cluster.nodes[0].driver.counters
    hits, misses = c["region_cache_hit"], c["region_cache_miss"]
    return AblationPoint(
        f"capacity {cap}", hits / (hits + misses) if hits + misses else 0.0
    )


CAPACITY_TASKS: list[Task] = [
    (cache_capacity_point, {"cap": cap, "nbuffers": 16, "nbytes": 256 * KIB})
    for cap in (4, 8, 16, 32)]


def overlap_check_point(cost: int, nbytes: int) -> AblationPoint:
    """Throughput with one per-packet descriptor-test cost."""
    from repro.workloads import imb_pingpong

    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            overlap_check_ns=cost)
    )
    result = imb_pingpong(cluster, nbytes, iterations=2)
    return AblationPoint(f"check {cost} ns", result.throughput_mib_s)


CHECK_TASKS: list[Task] = [
    (overlap_check_point, {"cost": cost, "nbytes": 16 * MIB})
    for cost in (0, 30, 150, 600)]


def format_ablations(pipeline: list[AblationPoint],
                     capacity: list[AblationPoint],
                     check: list[AblationPoint]) -> str:
    return "\n".join(
        ["Ablation: pipelined registration vs driver-level overlap"]
        + [f"  {p.label:32s} {p.value:8.1f} MiB/s" for p in pipeline]
        + ["Ablation: region cache capacity vs hit rate "
           "(16 buffers cycled)"]
        + [f"  {p.label:32s} {p.value:8.2f}" for p in capacity]
        + ["Ablation: per-packet overlap descriptor-check cost"]
        + [f"  {p.label:32s} {p.value:8.1f} MiB/s" for p in check])
