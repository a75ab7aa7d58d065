"""Regenerate every table and figure of the paper from the command line.

Usage::

    python -m repro.experiments                 # quick sweep (a few minutes)
    python -m repro.experiments --full          # the paper's full size axis
    python -m repro.experiments table1          # one artifact only
    python -m repro.experiments --jobs 1        # run every task in-process
                                                # (default: one worker per
                                                # usable core)
    python -m repro.experiments --cache         # reuse results cached by a
                                                # prior run of identical code
    python -m repro.experiments --json out.json # also save machine-readable results
    python -m repro.experiments --metrics m.json  # dump the obs metric snapshot
                                                  # (render: python -m repro.obs m.json)

The wanted artifacts' tasks (:data:`repro.experiments.runner.SWEEP`) run
in one pool, so ``--jobs`` overlaps every artifact with every other.

Determinism contract: ``--jobs N`` and ``--cache`` never change any output
byte — the fan-out preserves submission order and merges worker metric
registries deterministically (see :mod:`repro.experiments.parallel`), and
the cache replays the recorded ``(result, registry)`` pairs.  The test
suite enforces this.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.figures67 import FAST_SIZES, FIGURE_SIZES
from repro.experiments.runner import SWEEP, run_artifacts, save_results
from repro.sim.pdes import host_core_count


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                        help=f"any of {', '.join(SWEEP)} (underscores "
                             "work as dashes; default: all)")
    parser.add_argument("--full", action="store_true",
                        help="the paper's full size axis")
    parser.add_argument("--json", metavar="PATH",
                        help="also save machine-readable results")
    parser.add_argument("--metrics", metavar="PATH",
                        help="dump the obs metric snapshot "
                             "(render: python -m repro.obs PATH)")
    parser.add_argument("--jobs", type=int, default=host_core_count(),
                        metavar="N",
                        help="run the sweep's tasks on N worker processes "
                             "(default: the usable cores; 1 runs them "
                             "in-process)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse results cached by a prior run of "
                             "identical code")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="cache directory (implies --cache)")
    args = parser.parse_intermixed_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    return args


def main(argv: list[str]) -> int:
    from repro.obs import MetricRegistry, use_registry, write_snapshot

    args = _parse(argv)
    cache = None
    if args.cache or args.cache_dir:
        from repro.experiments.cache import ResultCache

        cache = (ResultCache(args.cache_dir) if args.cache_dir
                 else ResultCache())

    # Accept underscores as dash aliases (overlap_miss == overlap-miss).
    wanted = {a.replace("_", "-") for a in args.artifacts} or set(SWEEP)
    unknown = wanted - set(SWEEP)
    if unknown:
        raise SystemExit(
            f"error: unknown artifact(s) {sorted(unknown)}; "
            f"choose from {sorted(SWEEP)}"
        )
    sizes = FIGURE_SIZES if args.full else FAST_SIZES

    # Every cluster built below inherits this registry, so one snapshot at
    # the end covers the whole session's kernels, NICs and drivers.
    registry = MetricRegistry()
    with use_registry(registry):
        built = run_artifacts(wanted, sizes, jobs=args.jobs, cache=cache)
    collected: dict[str, object] = {}
    for name, results in built.items():
        collected.update(zip(SWEEP[name].saves, results))
        print(SWEEP[name].show(*results))
    if cache is not None:
        # stderr, so a warm run's stdout is byte-identical to a cold one.
        print(f"(cache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"in {cache.directory})", file=sys.stderr)
    if args.metrics is not None:
        write_snapshot(args.metrics, registry)
        print(f"(metrics snapshot saved to {args.metrics}; "
              f"render with: python -m repro.obs {args.metrics})")
    if args.json is not None:
        save_results(args.json, collected)
        print(f"(results saved to {args.json})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
