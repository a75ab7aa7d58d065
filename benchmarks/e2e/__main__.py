"""Command line of the end-to-end benchmark.

Usage, from the repository root::

    python3 -m benchmarks.e2e [--workload W ...] [--seed N] [--seconds S]
                              [--trace [0|1]] [--json PATH] [--smoke]
    python3 -m benchmarks.e2e compare BASE [CHANGE] [--pairs N] ...
    python3 -m benchmarks.e2e compare --same [REV] [--pairs N] ...
    python3 -m benchmarks.e2e write-goldens

A run of one workload prints its result as the last line of stdout: one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics untraced, the per-layer metrics traced).  Several
workloads run one after another, each in a fresh process, each printing its
own line.  The exit code is 0 only if every task's output was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.harness import ROOT, load_spec


def _use_src(src: Path) -> None:
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))


def _parser() -> argparse.ArgumentParser:
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e",
        description="End-to-end, per-layer host-time benchmark.")
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of "
                             "BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced sample")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the results and per-task times here")
    parser.add_argument("--smoke", action="store_true",
                        help="two tasks per workload (for the tests)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the tree to import repro from")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up probe
    return parser


def _run_one(args, workload_name: str) -> tuple[int, dict]:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS, pass_tasks

    workload = WORKLOADS[workload_name]
    if args.probe:
        from repro.experiments.parallel import run_task  # noqa: F401

        pass_tasks(workload, args.seed, args.seconds, args.smoke)
        print("ready", flush=True)
        print(statistics.median(harness.calibrate() for _ in range(3)),
              flush=True)
        return 0, {}
    result = harness.run_workload(workload, args.seed, args.seconds,
                                  trace=bool(args.trace), smoke=args.smoke,
                                  src=args.src)
    line = result.summary(load_spec())
    for record in result.records:
        if record.failure:
            print(f"FAILED {record.name}: {record.failure}", file=sys.stderr)
    n = len(result.records)
    speed = statistics.median(r.speed for r in result.records)
    print(f"{workload_name} seed={args.seed}: {n} tasks"
          + ("" if args.trace else
             f", tail is p{harness.tail_percentile(n):.0f}, host time "
             f"x{speed:.3f} of the reference"), file=sys.stderr)
    detail = {**line, "workload": workload_name, "seed": args.seed,
              "tasks": [{"name": r.name, "ms": 1e3 * r.seconds,
                         "speed": r.speed, "failure": r.failure}
                        for r in result.records]}
    return (0 if line["correct"] else 1), detail


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["write-goldens"]:
        _use_src(ROOT / "src")
        from benchmarks.e2e.goldens import write_goldens

        write_goldens()
        return 0

    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    args.src = args.src.resolve()
    _use_src(args.src)

    if len(args.workload) == 1:
        code, detail = _run_one(args, args.workload[0])
        if not args.probe:
            if args.json is not None:
                args.json.write_text(json.dumps(detail, indent=1))
            print(json.dumps({k: detail[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
        return code

    # Several workloads: each alone, in a fresh process, in sequence.
    code, details = 0, []
    for name in args.workload:
        child = [sys.executable, "-m", "benchmarks.e2e", "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--src", str(args.src)]
        child += ["--smoke"] if args.smoke else []
        out = subprocess.run(child, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
        last = out.stdout.strip().splitlines()[-1:] or ["{}"]
        print(last[0], flush=True)
        details.append({"workload": name, **json.loads(last[0])})
        code = code or out.returncode
    if args.json is not None:
        args.json.write_text(json.dumps(details, indent=1))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
