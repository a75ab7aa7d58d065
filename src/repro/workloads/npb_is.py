"""NPB IS (Integer Sort) communication skeleton.

The paper's application experiment runs ``is.C.4`` — the NAS Parallel
Benchmarks integer sort, class C, on 4 processes over 2 nodes.  IS is the
large-message-intensive NAS kernel: each iteration performs

1. local key ranking (bucket counting) — pure compute,
2. an all-reduce of the bucket histograms (small message),
3. an all-to-all(v) redistributing the keys themselves (large messages —
   this is where the pinning optimizations bite),
4. local ranking of the received keys — pure compute.

We reproduce the *communication skeleton* with real key data: the keys are
actually generated, ranked, exchanged, and checked on arrival, while the
local compute phases are charged to the CPU with a per-key cost model.  The
problem is scaled down from class C (2^27 keys) by default so a simulation
finishes in seconds; the communication pattern and the
compute/communication ratio per key are preserved.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.cluster.builder import Cluster
from repro.mpi import Communicator, RankComm, allreduce, alltoall, barrier
from repro.util.units import transfer_time_ns

__all__ = ["IsConfig", "IsResult", "received_keys_ok", "run_is"]

# Per-key CPU cost of the local phases (bucket count + final ranking): a
# few integer ops per 4-byte key on a ~3 GHz core.  IS class C at 4 ranks is
# communication-dominated (the all-to-all moves the entire key set every
# iteration), so the compute phases are the smaller share.
KEY_RANK_BYTES_PER_SEC = 4.0e9

NBUCKETS = 1024


@dataclass(frozen=True)
class IsConfig:
    """Scaled IS problem."""

    total_keys: int = 1 << 21  # class C is 1 << 27; scaled for simulation
    iterations: int = 4
    key_bytes: int = 4
    seed: int = 20090525  # the CAC'09 workshop date


@dataclass(frozen=True)
class IsResult:
    config: IsConfig
    nranks: int
    elapsed_ns: int
    per_iteration_ns: float
    verified: bool


def _compute(rc: RankComm, nbytes: int) -> Generator:
    yield from rc.proc.core.execute_sliced(
        transfer_time_ns(nbytes, KEY_RANK_BYTES_PER_SEC), priority=10
    )


def _counting_sort(keys: np.ndarray, key_range: int) -> np.ndarray:
    """IS's own ranking: keys are bounded integers, so count and expand."""
    return np.repeat(np.arange(key_range, dtype=np.uint32),
                     np.bincount(keys, minlength=key_range))


def received_keys_ok(received: np.ndarray, sorted_keys: list[np.ndarray],
                     rank: int, chunk_keys: int) -> bool:
    """Whether ``rank`` received its slice of every source's sorted keys.

    After the all-to-all, chunk ``s`` of the receive buffer must be source
    ``s``'s sorted keys ``[rank * chunk_keys, (rank + 1) * chunk_keys)``.
    """
    lo = rank * chunk_keys
    expected = np.concatenate([keys[lo:lo + chunk_keys]
                               for keys in sorted_keys])
    return bool(np.array_equal(received, expected))


def run_is(cluster: Cluster, config: IsConfig | None = None,
           nranks: int | None = None) -> IsResult:
    """Run the IS skeleton; returns timing and a check of the received keys."""
    if config is None:
        config = IsConfig()
    libs = cluster.all_libs()
    if nranks is not None:
        libs = libs[:nranks]
    comm = Communicator(libs)
    size = comm.size
    env = cluster.env
    keys_per_rank = config.total_keys // size
    chunk_keys = keys_per_rank // size
    chunk_bytes = chunk_keys * config.key_bytes
    hist_bytes = NBUCKETS * 8

    key_range = size * 1000
    rng = np.random.default_rng(config.seed)
    all_keys = [
        rng.integers(0, key_range, size=keys_per_rank, dtype=np.uint32)
        for _ in range(size)
    ]
    # The keys never change between iterations, so neither do the bytes
    # each iteration writes: rank them once, charge the compute every time.
    sorted_keys = [_counting_sort(keys, key_range) for keys in all_keys]

    marks: dict[int, int] = {}
    verified: dict[int, bool] = {}

    def rank_body(rc: RankComm):
        hist, _ = np.histogram(all_keys[rc.rank], bins=NBUCKETS,
                               range=(0, key_range))
        hist_payload = hist.astype(np.float64).tobytes()
        # Keys destined to rank d are those in d's key range.  Equal-chunk
        # approximation (uniform keys make the real IS nearly equal too).
        send_payload = sorted_keys[rc.rank][: size * chunk_keys].tobytes()
        send_buf = rc.alloc(size * chunk_bytes)
        recv_buf = rc.alloc(size * chunk_bytes)
        hist_s = rc.alloc(hist_bytes)
        hist_r = rc.alloc(hist_bytes)
        yield from barrier(rc)
        t0 = env.now
        for _ in range(config.iterations):
            # Phase 1: local bucket counting.
            yield from _compute(rc, keys_per_rank * config.key_bytes)
            rc.write(hist_s, hist_payload)
            # Phase 2: histogram allreduce (small message).
            yield from allreduce(rc, hist_s, hist_r, hist_bytes)
            # Phase 3: key redistribution.
            rc.write(send_buf, send_payload)
            yield from alltoall(rc, send_buf, recv_buf, chunk_bytes)
            # Phase 4: local ranking of received keys.
            yield from _compute(rc, size * chunk_bytes)
        marks[rc.rank] = env.now - t0
        received = np.frombuffer(
            rc.read(recv_buf, size * chunk_bytes), dtype=np.uint32
        )
        verified[rc.rank] = received_keys_ok(received, sorted_keys, rc.rank,
                                             chunk_keys)

    done = env.all_of([env.process(rank_body(rc)) for rc in comm.ranks()])
    env.run(until=done)
    elapsed = max(marks.values())
    return IsResult(
        config=config,
        nranks=size,
        elapsed_ns=elapsed,
        per_iteration_ns=elapsed / config.iterations,
        verified=all(verified.values()),
    )
