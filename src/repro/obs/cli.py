"""``python -m repro.obs`` — render a metrics snapshot as tables.

Usage::

    python -m repro.obs out.json                # tables (counters/gauges/histograms)
    python -m repro.obs out.json --format prom  # re-emit as Prometheus text
    python -m repro.obs out.json --format csv
    python -m repro.obs out.json --grep pin     # only metrics matching a substring
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.obs.export import load_snapshot, snapshot_to_csv, snapshot_to_prometheus

__all__ = ["main", "render_snapshot"]


def _label_str(labels: dict[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def render_snapshot(snapshot: dict[str, Any], grep: str = "") -> str:
    """Tables for each metric kind, in the repo's standard table style."""
    from repro.experiments.report import format_table

    metrics = {
        name: fam for name, fam in snapshot["metrics"].items() if grep in name
    }
    sections: list[str] = []

    scalars = []
    for name, fam in metrics.items():
        if fam["kind"] not in ("counter", "gauge"):
            continue
        for sample in fam["samples"]:
            scalars.append(
                [name, fam["kind"], _label_str(sample["labels"]), sample["value"]]
            )
    if scalars:
        sections.append(format_table(
            ["metric", "kind", "labels", "value"], scalars,
            title="Counters and gauges"
        ))

    hists = []
    for name, fam in metrics.items():
        if fam["kind"] != "histogram":
            continue
        for sample in fam["samples"]:
            count = sample["count"]
            mean = sample["sum"] / count if count else 0.0
            hists.append([
                name, _label_str(sample["labels"]), count, mean,
                sample["p50"], sample["p95"], sample["p99"], sample["max"],
            ])
    if hists:
        sections.append(format_table(
            ["histogram", "labels", "count", "mean", "p50", "p95", "p99", "max"],
            hists, title="Histograms (ns unless metric says otherwise)"
        ))

    if not sections:
        return "(no metrics matched)"
    return "\n\n".join(sections)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render repro.obs metric snapshots (JSON files written "
                    "by --metrics) as tables, Prometheus text or CSV.")
    parser.add_argument("snapshots", nargs="+", metavar="SNAPSHOT.json")
    parser.add_argument("--format", choices=("table", "prom", "csv"),
                        default="table", help="output format (default: table)")
    parser.add_argument("--grep", default="", metavar="SUBSTR",
                        help="tables only: show metrics whose name contains "
                             "SUBSTR")
    return parser.parse_intermixed_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Exit 0 on success; 2 on bad arguments (before any file is read) or
    an unreadable, non-JSON or wrong-schema snapshot."""
    args = _parse(argv)
    for path in args.snapshots:
        try:
            snapshot = load_snapshot(path)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:  # bad JSON or wrong snapshot schema
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        if args.format == "table":
            print(render_snapshot(snapshot, grep=args.grep))
        elif args.format == "prom":
            print(snapshot_to_prometheus(snapshot), end="")
        else:
            print(snapshot_to_csv(snapshot), end="")
    return 0
