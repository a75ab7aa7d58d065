"""Buffer-reuse sweep — the paper's complementarity claim, quantified.

Sections 4.2/5 argue the two optimizations are complementary: the pinning
cache wins when buffers are reused, overlapped pinning wins regardless and
is "an interesting optimization when the pinning cache cannot help".

This experiment sweeps the fraction of messages sent from a reused buffer
(0% → 100%) and measures throughput under three strategies.  Expected
shape: the cache's advantage over regular pinning grows with reuse (and
its *hit rate* tracks the reuse fraction), while overlap's advantage is
flat across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import build_cluster
from repro.experiments.parallel import Task
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB
from repro.workloads.patterns import run_reuse_pattern

__all__ = ["REUSE_TASKS", "ReuseSweepRow", "assemble_reuse", "reuse_point"]

REUSE_POINTS = [0.0, 0.25, 0.5, 0.75, 1.0]


@dataclass(frozen=True)
class ReuseSweepRow:
    reuse_fraction: float
    regular_mib_s: float
    cache_mib_s: float
    overlap_mib_s: float
    cache_hit_rate: float

    @property
    def cache_gain_pct(self) -> float:
        return 100.0 * (self.cache_mib_s / self.regular_mib_s - 1.0)

    @property
    def overlap_gain_pct(self) -> float:
        return 100.0 * (self.overlap_mib_s / self.regular_mib_s - 1.0)


def reuse_point(mode: PinningMode, nbytes: int, messages: int, reuse: float):
    """One (mode, reuse fraction) measurement — the unit of fan-out."""
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode))
    return run_reuse_pattern(cluster, nbytes, messages, reuse)


_SWEEP_MODES = (PinningMode.PIN_PER_COMM, PinningMode.CACHE,
                PinningMode.OVERLAP)


# 12 messages of 1 MB per (reuse fraction, strategy), strategies innermost.
REUSE_TASKS: list[Task] = [
    (reuse_point,
     {"mode": mode, "nbytes": 1 * MIB, "messages": 12, "reuse": reuse})
    for reuse in REUSE_POINTS
    for mode in _SWEEP_MODES
]


def assemble_reuse(results: list) -> list[ReuseSweepRow]:
    """One row per reuse fraction from the results of ``REUSE_TASKS``."""
    rows = []
    for i, reuse in enumerate(REUSE_POINTS):
        regular, cached, overlap = results[i * 3:(i + 1) * 3]
        rows.append(ReuseSweepRow(reuse, regular.throughput_mib_s,
                                  cached.throughput_mib_s,
                                  overlap.throughput_mib_s, cached.hit_rate))
    return rows


def format_reuse_sweep(rows: list[ReuseSweepRow]) -> str:
    from repro.experiments.report import format_table

    return format_table(
        ["Reuse", "Regular MiB/s", "Cache MiB/s", "Overlap MiB/s",
         "Cache gain", "Overlap gain", "Hit rate"],
        [
            [f"{r.reuse_fraction:.0%}", f"{r.regular_mib_s:.0f}",
             f"{r.cache_mib_s:.0f}", f"{r.overlap_mib_s:.0f}",
             f"{r.cache_gain_pct:+.1f}%", f"{r.overlap_gain_pct:+.1f}%",
             f"{r.cache_hit_rate:.2f}"]
            for r in rows
        ],
        title="Buffer-reuse sweep: cache vs overlap complementarity",
    )
