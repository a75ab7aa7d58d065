"""End-to-end, per-layer host-time benchmark of the paper regeneration and
its soaks.

Run it from the repository root with ``python3 -m benchmarks.e2e``; see
``README.md`` next to this file for the workloads, the metrics and the
``compare`` subcommand.  The package imports ``repro`` from ``src/`` (or
from the tree given with ``--src``) and drives it only through public
entry points, so it never changes when the simulator's internals do.
"""
