"""Figures 6 and 7 — IMB PingPong throughput vs message size.

Figure 6 compares *pin once per communication* against *permanent pinning*,
with and without I/OAT copy offload — quantifying how much memory pinning
costs on the fast Xeon E5460 testbed (~5 % there, up to ~20 % on the slow
Opteron 265, which :func:`series_tasks` can also reproduce by passing its
CPU spec).

Figure 7 compares the paper's optimizations on the same axis: regular
pinning vs overlapped pinning vs the pinning cache vs both combined.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import build_cluster
from repro.experiments.parallel import Task
from repro.hw.specs import CpuSpec, XEON_E5460
from repro.openmx import OpenMXConfig, PinningMode
from repro.workloads import imb_pingpong
from repro.util.units import KIB, MIB, fmt_size

__all__ = [
    "FIGURE6_SERIES",
    "FIGURE7_SERIES",
    "FIGURE_SIZES",
    "PingpongSeries",
    "assemble_series",
    "pingpong_point",
    "series_tasks",
]

# The x-axis of figures 6 and 7: 64 kB .. 16 MB.
FIGURE_SIZES = [64 * KIB, 128 * KIB, 256 * KIB, 512 * KIB,
                1 * MIB, 2 * MIB, 4 * MIB, 8 * MIB, 16 * MIB]
FAST_SIZES = [64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB]


@dataclass(frozen=True)
class PingpongSeries:
    """One curve: (size, MiB/s) points."""

    label: str
    points: tuple[tuple[int, float], ...]

    def throughput_at(self, nbytes: int) -> float:
        for size, mib_s in self.points:
            if size == nbytes:
                return mib_s
        raise KeyError(f"no point at {nbytes}")


def _iters_for(nbytes: int) -> int:
    if nbytes <= 256 * KIB:
        return 4
    if nbytes <= MIB:
        return 3
    return 2


def pingpong_point(mode: PinningMode, use_ioat: bool, nbytes: int,
                   cpu: CpuSpec = XEON_E5460) -> tuple[int, float]:
    """One (size, MiB/s) point on a fresh cluster — the unit of fan-out."""
    cluster = build_cluster(
        cpu=cpu,
        config=OpenMXConfig(pinning_mode=mode, use_ioat=use_ioat),
    )
    result = imb_pingpong(cluster, nbytes, iterations=_iters_for(nbytes))
    return (nbytes, result.throughput_mib_s)


# The curves of each figure: (label, pinning mode, I/OAT copy offload).
FIGURE6_SERIES = [
    ("Open-MX - Pin once per Communication", PinningMode.PIN_PER_COMM, False),
    ("Open-MX - Permanent Pinning", PinningMode.PERMANENT, False),
    ("Open-MX + I/OAT - Pin once per Communication",
     PinningMode.PIN_PER_COMM, True),
    ("Open-MX + I/OAT - Permanent-Pinning", PinningMode.PERMANENT, True),
]
FIGURE7_SERIES = [
    ("Open-MX - Regular Pinning", PinningMode.PIN_PER_COMM, False),
    ("Open-MX - Overlapped Pinning", PinningMode.OVERLAP, False),
    ("Open-MX - Pinning Cache", PinningMode.CACHE, False),
    ("Open-MX - Overlapped Pinning Cache", PinningMode.OVERLAP_CACHE, False),
]


def series_tasks(specs: list[tuple[str, PinningMode, bool]],
                 sizes: list[int], cpu: CpuSpec) -> list[Task]:
    """Every (series, size) point of a figure as one flat task list."""
    return [
        (pingpong_point,
         {"mode": mode, "use_ioat": use_ioat, "nbytes": nbytes, "cpu": cpu})
        for _, mode, use_ioat in specs
        for nbytes in sizes
    ]


def assemble_series(specs: list[tuple[str, PinningMode, bool]],
                    points: list[tuple[int, float]]) -> list[PingpongSeries]:
    """The curves of :func:`series_tasks`' results, in ``specs`` order."""
    n = len(points) // len(specs)
    return [PingpongSeries(label, tuple(points[i * n:(i + 1) * n]))
            for i, (label, _, _) in enumerate(specs)]


def format_series_table(series: list[PingpongSeries], title: str) -> str:
    from repro.experiments.report import format_table

    sizes = [s for s, _ in series[0].points]
    headers = ["Message size"] + [s.label for s in series]
    rows = []
    for i, size in enumerate(sizes):
        rows.append([fmt_size(size)] + [f"{s.points[i][1]:.0f}" for s in series])
    return format_table(headers, rows, title=title)
