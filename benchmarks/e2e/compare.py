"""``compare``: apply the acceptance rule to a parent and a change.

    python3 -m benchmarks.e2e compare BASE [CHANGE] [--pairs N]
    python3 -m benchmarks.e2e compare --same [REV] [--pairs N]

``BASE``/``CHANGE``/``REV`` are git revisions; ``CHANGE`` and ``REV``
default to the working tree.  Each revision's ``src/`` is exported with
``git archive`` under ``.e2e_revs/<sha>/`` and imported from there, while
the benchmark code always comes from the current checkout.  Pair ``i``
runs every workload at seed ``i`` on both sides, the side that goes first
alternating from pair to pair.

Verdict per workload and end-to-end metric, in this order:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and its median beats the parent's by more than the
  parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* ``unresolved``: the parent's quartile spread exceeds the bound, unless
  every run of the change beats every run of the parent;
* ``no-worse`` otherwise.

``--same`` runs two sets of one revision and checks that every median
agrees within its bound and that every spread stays within its bound.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

from benchmarks.e2e.harness import ROOT, load_spec

__all__ = ["main", "spread", "verdict"]


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The acceptance rule for one metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    gain = [sign * (p - c) for p, c in zip(parent, change)]
    wins = sum(1 for g in gain if g > 0)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_med = statistics.median(change)
    if wins >= 0.9 * len(gain) and sign * (p_med - c_med) > p_q3 - p_q1:
        return "improved"
    if sign * (c_med - p_med) > bound * p_med:
        return "worse"
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved"
    return "no-worse"


def _export(rev: str | None) -> Path:
    """``src/`` of a git revision (``None``: the working tree)."""
    if rev is None:
        return ROOT / "src"
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    dest = ROOT / ".e2e_revs" / sha
    if not (dest / "src" / "repro").is_dir():
        tar = subprocess.run(["git", "archive", "--format=tar", sha, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(dest, filter="data")
    return dest / "src"


def _run(src: Path, workload: str, seed: int, seconds: float
         ) -> dict | None:
    """One run's end-to-end metrics, or ``None`` if it failed."""
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--src", str(src)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {}
    if out.returncode or not line.get("correct"):
        print(f"FAILED: {workload} seed {seed} on {src} "
              f"(exit {out.returncode})", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in line["metrics"].items()}


def main(argv: list[str]) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e compare")
    parser.add_argument("revs", nargs="*", metavar="REV")
    parser.add_argument("--same", action="store_true",
                        help="two sets of one revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.same:
        if len(args.revs) > 1:
            parser.error("--same takes at most one revision")
        src = _export(args.revs[0] if args.revs else None)
        sides = {"first": src, "second": src}
    else:
        if len(args.revs) not in (1, 2):
            parser.error("give BASE and optionally CHANGE")
        sides = {"parent": _export(args.revs[0]),
                 "change": _export(args.revs[1] if len(args.revs) > 1
                                   else None)}
    names = list(sides)

    samples = {w: {side: [] for side in names} for w in args.workload}
    failed = 0
    for i in range(args.pairs):
        order = names if i % 2 == 0 else names[::-1]
        for w in args.workload:
            pair = {side: _run(sides[side], w, i, seconds) for side in order}
            if None in pair.values():
                failed += 1  # a failed run drops its whole pair
                continue
            for side in names:
                samples[w][side].append(pair[side])
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)
    if any(len(samples[w][names[0]]) < 2 for w in args.workload):
        raise SystemExit("too few successful pairs to compare")

    code = 1 if failed else 0
    report = {}
    for w in args.workload:
        print(f"\n{w} ({len(samples[w][names[0]])} pairs)")
        print(f"  {'metric':14s} {names[0]:>30s} {names[1]:>30s}  "
              f"{'wins':>5s}  verdict")
        report[w] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [s[name] for s in samples[w][names[0]]]
            b = [s[name] for s in samples[w][names[1]]]
            if args.same:
                drift = abs(statistics.median(b) - statistics.median(a))
                ok = (drift <= metric["bound"] * statistics.median(a)
                      and max(spread(a), spread(b)) <= metric["bound"])
                result = "agree" if ok else "differ"
            else:
                result = verdict(a, b, metric["better"], metric["bound"])
                ok = result != "worse"
            code = code or (0 if ok else 1)
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
            cells = []
            for values in (a, b):
                q1, q2, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"  {name:14s} {cells[0]:>30s} {cells[1]:>30s}  "
                  f"{wins:>2d}/{len(a):<2d}  {result} (bound "
                  f"{metric['bound']:.0%}, spread {spread(a):.1%} / "
                  f"{spread(b):.1%})")
            report[w][name] = {names[0]: a, names[1]: b, "verdict": result}
    if failed:
        print(f"\n{failed} pair(s) dropped: a run failed", file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1))
    return code
