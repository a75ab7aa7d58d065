"""Buffer-reuse pattern workloads.

The pinning cache only pays off when the application communicates from the
same buffers repeatedly; overlapped pinning helps regardless (Sections 4.2
and 5: "if the application cannot benefit from the pinning cache — for
instance if it does not reuse the same buffer multiple times — the same
performance improvement is brought by overlapped memory pinning").

:func:`run_reuse_pattern` drives a stream of same-size messages whose
buffers are drawn from a pool: ``reuse_fraction = 1.0`` sends every message
from one hot buffer; ``0.0`` mallocs (and frees) a fresh buffer for every
message, complete with the munmap → MMU-notifier invalidation traffic a
real allocation-churning application generates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.builder import Cluster
from repro.util.units import throughput_mib_s

__all__ = ["ReuseResult", "run_reuse_pattern"]


@dataclass(frozen=True)
class ReuseResult:
    reuse_fraction: float
    nbytes: int
    messages: int
    elapsed_ns: int
    cache_hits: int
    cache_misses: int
    invalidations: int

    @property
    def throughput_mib_s(self) -> float:
        return throughput_mib_s(self.nbytes * self.messages, self.elapsed_ns)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def run_reuse_pattern(cluster: Cluster, nbytes: int, messages: int,
                      reuse_fraction: float, seed: int = 1) -> ReuseResult:
    """Send ``messages`` buffers of ``nbytes`` from node 0 to node 1.

    Each message uses the hot buffer with probability ``reuse_fraction``;
    otherwise a freshly malloc'ed buffer that is freed right after the send
    completes (so a notifier-backed cache sees real invalidations, and a
    notifier-less design would go stale).
    """
    if not 0.0 <= reuse_fraction <= 1.0:
        raise ValueError(f"reuse_fraction must be in [0,1], got {reuse_fraction}")
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    rng = np.random.default_rng(seed)
    reuse_plan = rng.random(messages) < reuse_fraction
    hot = sp.malloc(nbytes)
    sp.write(hot, b"h" * nbytes)
    rbuf = rp.malloc(nbytes)
    marks = {}

    def sender():
        marks["t0"] = env.now
        for i in range(messages):
            if reuse_plan[i]:
                buf, fresh = hot, False
            else:
                buf, fresh = sp.malloc(nbytes), True
                sp.write(buf, bytes([i % 251]) * min(64, nbytes))
            req = yield from s.isend(buf, nbytes, r.board, r.endpoint_id, i)
            yield from s.wait(req)
            if fresh:
                sp.free(buf)  # munmap -> invalidation traffic

    def receiver():
        for i in range(messages):
            req = yield from r.irecv(rbuf, nbytes, i)
            yield from r.wait(req)
        marks["t1"] = env.now

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    c = cluster.nodes[0].driver.counters
    return ReuseResult(
        reuse_fraction=reuse_fraction,
        nbytes=nbytes,
        messages=messages,
        elapsed_ns=marks["t1"] - marks["t0"],
        cache_hits=c["region_cache_hit"],
        cache_misses=c["region_cache_miss"],
        invalidations=c["invalidate_unpinned"] + c["invalidate_deferred"],
    )
