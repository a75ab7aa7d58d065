"""Regenerate every table and figure of the paper from the command line.

Usage::

    python -m repro.experiments                 # quick sweep (a few minutes)
    python -m repro.experiments --full          # the paper's full size axis
    python -m repro.experiments table1          # one artifact only
    python -m repro.experiments --jobs 4        # fan sweep points out across
                                                # 4 worker processes
    python -m repro.experiments --cache         # reuse results cached by a
                                                # prior run of identical code
    python -m repro.experiments --json out.json # also save machine-readable results
    python -m repro.experiments --metrics m.json  # dump the obs metric snapshot
                                                  # (render: python -m repro.obs m.json)

Determinism contract: ``--jobs N`` and ``--cache`` never change any output
byte — the fan-out preserves submission order and merges worker metric
registries deterministically (see :mod:`repro.experiments.parallel`), and
the cache replays the recorded ``(result, registry)`` pairs.  The test
suite enforces this.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.ablations import (
    run_cache_capacity_ablation,
    run_overlap_check_ablation,
    run_pipeline_ablation,
)
from repro.experiments.figures67 import (
    FAST_SIZES,
    FIGURE_SIZES,
    format_series_table,
    run_figure6,
    run_figure7,
)
from repro.experiments.motivation import format_motivation, run_motivation
from repro.experiments.overlap_miss import (
    run_miss_probability,
    run_overloaded_core,
)
from repro.experiments.reuse_sweep import format_reuse_sweep, run_reuse_sweep
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2


ARTIFACTS = ("table1", "figure6", "figure7", "table2", "overlap-miss",
             "ablations", "reuse-sweep", "motivation")


def _jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {value!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                        help=f"any of {', '.join(ARTIFACTS)} (underscores "
                             "work as dashes; default: all)")
    parser.add_argument("--full", action="store_true",
                        help="the paper's full size axis")
    parser.add_argument("--json", metavar="PATH",
                        help="also save machine-readable results")
    parser.add_argument("--metrics", metavar="PATH",
                        help="dump the obs metric snapshot "
                             "(render: python -m repro.obs PATH)")
    parser.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                        help="fan sweep points out across N worker processes")
    parser.add_argument("--cache", action="store_true",
                        help="reuse results cached by a prior run of "
                             "identical code")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="cache directory (implies --cache)")
    return parser.parse_intermixed_args(argv)


def main(argv: list[str]) -> int:
    from repro.obs import MetricRegistry, use_registry, write_snapshot

    args = _parse(argv)
    cache = None
    if args.cache or args.cache_dir:
        from repro.experiments.cache import ResultCache

        cache = (ResultCache(args.cache_dir) if args.cache_dir
                 else ResultCache())

    collected: dict[str, object] = {}
    # Accept underscores as dash aliases (overlap_miss == overlap-miss).
    wanted = {a.replace("_", "-") for a in args.artifacts} or set(ARTIFACTS)
    unknown = wanted - set(ARTIFACTS)
    if unknown:
        raise SystemExit(
            f"error: unknown artifact(s) {sorted(unknown)}; "
            f"choose from {sorted(ARTIFACTS)}"
        )
    sizes = FIGURE_SIZES if args.full else FAST_SIZES

    # Every cluster built below inherits this registry, so one snapshot at
    # the end covers the whole session's kernels, NICs and drivers.
    registry = MetricRegistry()
    with use_registry(registry):
        _run_wanted(wanted, sizes, collected, jobs=args.jobs, cache=cache)
    if cache is not None:
        # stderr, so a warm run's stdout is byte-identical to a cold one.
        print(f"(cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"in {cache.directory})", file=sys.stderr)
    if args.metrics is not None:
        write_snapshot(args.metrics, registry)
        print(f"(metrics snapshot saved to {args.metrics}; "
              f"render with: python -m repro.obs {args.metrics})")
    if args.json is not None:
        from repro.experiments.runner import save_results

        save_results(args.json, collected)
        print(f"(results saved to {args.json})")
    return 0


def _run_wanted(wanted: set[str], sizes, collected: dict[str, object],
                jobs: int = 1, cache=None) -> None:
    from repro.experiments.parallel import parallel_map

    def one(fn, **kwargs):
        # Single-task artifacts still route through parallel_map so the
        # result cache covers them too.
        return parallel_map([(fn, kwargs)], jobs=1, cache=cache)[0]

    if "table1" in wanted:
        collected["table1"] = one(run_table1)
        print(format_table1(collected["table1"]))
        print()
    if "figure6" in wanted:
        collected["figure6"] = run_figure6(sizes, jobs=jobs, cache=cache)
        print(format_series_table(collected["figure6"],
                                  "Figure 6: IMB PingPong (MiB/s)"))
        print()
    if "figure7" in wanted:
        collected["figure7"] = run_figure7(sizes, jobs=jobs, cache=cache)
        print(format_series_table(collected["figure7"],
                                  "Figure 7: IMB PingPong (MiB/s)"))
        print()
    if "table2" in wanted:
        collected["table2"] = one(run_table2)
        print(format_table2(collected["table2"]))
        print()
    if "overlap-miss" in wanted:
        # Two independent measurements: fan them out as a pair.
        miss, over = parallel_map(
            [(run_miss_probability, {}), (run_overloaded_core, {})],
            jobs=jobs, cache=cache,
        )
        collected["miss_probability"] = miss
        print("Section 4.3: overlap-miss probability under regular load")
        print(f"  {miss.overlap_misses} misses / {miss.data_packets} data "
              f"packets (rate {miss.miss_rate:.2e}; paper < 1e-4)")
        collected["overloaded_core"] = over
        print("Section 4.3: overloaded interrupt core")
        print(f"  normal {over.normal_mib_s:.0f} MiB/s -> overloaded "
              f"{over.overloaded_mib_s:.1f} MiB/s (x{over.slowdown:.0f}; "
              f"paper ~x20), {over.overlap_misses} overlap misses, BH core "
              f"{over.bh_core_utilization:.0%} busy")
        print(f"  pin-wait tail (starved pinner): p50 "
              f"{over.pin_wait_p50_ns / 1e3:.0f} us, p95 "
              f"{over.pin_wait_p95_ns / 1e3:.0f} us, p99 "
              f"{over.pin_wait_p99_ns / 1e3:.0f} us")
        print()
    if "motivation" in wanted:
        collected["motivation"] = one(run_motivation)
        print(format_motivation(collected["motivation"]))
        print()
    if "reuse-sweep" in wanted:
        collected["reuse_sweep"] = run_reuse_sweep(jobs=jobs, cache=cache)
        print(format_reuse_sweep(collected["reuse_sweep"]))
        print()
    if "ablations" in wanted:
        print("Ablation: pipelined registration vs driver-level overlap")
        for p in run_pipeline_ablation(jobs=jobs, cache=cache):
            print(f"  {p.label:32s} {p.value:8.1f} MiB/s")
        print("Ablation: region cache capacity vs hit rate (16 buffers cycled)")
        for p in run_cache_capacity_ablation(jobs=jobs, cache=cache):
            print(f"  {p.label:32s} {p.value:8.2f}")
        print("Ablation: per-packet overlap descriptor-check cost")
        for p in run_overlap_check_ablation(jobs=jobs, cache=cache):
            print(f"  {p.label:32s} {p.value:8.1f} MiB/s")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
