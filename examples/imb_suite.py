#!/usr/bin/env python
"""Run a mini IMB suite across the pinning strategies (Figures 6/7 flavour).

Sweeps IMB PingPong over message sizes for every pinning mode and prints a
throughput table plus an ASCII rendering of the Figure 7 curves.  Then runs
one collective (Allreduce, 4 ranks over 2 nodes) in the three Table 2
configurations.

Run:  python examples/imb_suite.py          (quick sizes)
      python examples/imb_suite.py --full   (the paper's full 64kB..16MB axis)
"""

import sys

from repro.cluster import build_cluster
from repro.experiments.figures67 import (
    FAST_SIZES,
    FIGURE_SIZES,
    format_series_table,
)
from repro.experiments.report import ascii_chart
from repro.experiments.runner import run_artifacts
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB, fmt_size
from repro.workloads import imb_collective


def main() -> None:
    sizes = FIGURE_SIZES if "--full" in sys.argv else FAST_SIZES
    (series,) = run_artifacts(["figure7"], sizes)["figure7"]
    print(format_series_table(series, "IMB PingPong throughput (MiB/s)"))
    print()
    chart = {
        s.label.replace("Open-MX - ", ""): [
            (fmt_size(size), mib) for size, mib in s.points
        ]
        for s in series
    }
    print(ascii_chart(chart, title="Figure 7 (shape)", ylabel="MiB/s"))

    print("\nIMB Allreduce, 4 ranks / 2 nodes, 1 MB:")
    for mode in (PinningMode.PIN_PER_COMM, PinningMode.CACHE, PinningMode.OVERLAP):
        cluster = build_cluster(
            nhosts=2, procs_per_host=2,
            config=OpenMXConfig(pinning_mode=mode, use_ioat=True),
        )
        r = imb_collective(cluster, "Allreduce", 1 * MIB)
        print(f"  {mode.value:14s} {r.per_iter_ns / 1e6:8.3f} ms/iteration")


if __name__ == "__main__":
    main()
