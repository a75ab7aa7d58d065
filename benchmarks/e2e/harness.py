"""Run one workload once and compute its metrics.

An untraced run (``trace=False``) executes the workload's pass in a closed
loop, one task at a time, and reports the end-to-end metrics; it then
spawns the set-up probes.  Its host times are normalized to the reference
host's speed with a calibration kernel timed between tasks (see
:func:`calibrate`).  A traced run executes a sample of the pass (the
workload's ``trace_share``) twice, first untraced (counters, result fields
and the untraced wall) and then under cProfile (the per-layer split), and
reports the per-layer metrics.  Every task's output is checked in both
kinds of run.

Tasks run with the interpreter's default garbage collector, as the
experiment and soak CLIs run them, so a collection and the memory it frees
late land where they land for a user.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from benchmarks.e2e.layers import BENCH, LAYERS, split_profile
from benchmarks.e2e.workloads import (
    DIGEST_CHARS, Task, Workload, load_goldens, pass_tasks)

__all__ = ["CALIBRATION_REF_S", "ROOT", "RunResult", "SETUP_PROBES",
           "TaskRecord", "calibrate", "load_spec", "run_tasks",
           "run_workload", "tail"]

ROOT = Path(__file__).resolve().parents[2]
SETUP_PROBES = 7
# Median calibration kernel time on the reference host (2 cores, Python
# 3.11): the unit in which normalized host times are expressed.
CALIBRATION_REF_S = 0.015
# The program slows by the kernel's slowdown to this power.  Fitted on the
# reference host: dividing by the whole slowdown over-corrected, so that
# normalized times fell by a tenth each time the kernel's time doubled.
CALIBRATION_EXPONENT = 0.85


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _kernel_steps():
    """The simulator's kind of work, in code that never changes with the
    program under test: timed generator resumptions through a heap, then
    buffer copies and random dict writes over a working set larger than
    the CPU caches (so memory-bandwidth contention shows too).  Yields
    between 20 steps of about equal size."""
    def process(k):
        total = 0
        while True:
            total += yield k

    procs = [process(i) for i in range(64)]
    for proc in procs:
        next(proc)
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for i in range(12_000):
        heapq.heappush(heap, ((i * 7919) % 1021, i))
        if len(heap) > 64:
            when, j = heapq.heappop(heap)
            procs[j % 64].send(when)
            seen[j % 4096] = when
        if i % 1000 == 999:
            yield
    buf = bytearray(4 << 20)
    for i in range(3):
        buf[i::4096] = bytes(buf)[:len(buf[i::4096])]
        yield
    x = 1
    for i in range(15_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seen[x % 200_003] = i
        if i % 3000 == 2999:
            yield


def calibrate(processes: int = 1) -> float:
    """Seconds the calibration kernel takes now.

    The reference host is shared with other machines' work: its speed
    drifts by 10-30% over minutes, and at times by 2x.  The kernel's time
    tracks that drift; dividing a task's time by the :func:`slowdown` of
    the median of the four kernel times around it expresses it in
    reference-host seconds (median, so that one slowed kernel does not
    skew a task).  The collector is off so that garbage the program under
    test left behind cannot slow the kernel.

    With ``processes`` > 1 the kernel runs in that many forked processes
    in lockstep: each waits for all the others after every step, as PDES
    shard workers wait for each other at every window.  Such a task moves
    at the pace of the slowest CPU at each step, which a kernel in this
    process alone does not see.
    """
    if processes == 1:
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in _kernel_steps():
                pass
            return time.perf_counter() - start
        finally:
            gc.enable()
    children = []
    for _ in range(processes):
        up_read, up_write = os.pipe()
        down_read, down_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one byte up after each step, then wait
            try:
                gc.disable()
                os.read(down_read, 1)
                for _ in _kernel_steps():
                    os.write(up_write, b".")
                    os.read(down_read, 1)
                os.write(up_write, b"!")
            finally:
                os._exit(0)
        os.close(up_write)
        os.close(down_read)
        children.append((pid, up_read, down_write))
    start = time.perf_counter()
    while True:
        for _, _, down in children:
            os.write(down, b".")
        if {os.read(up, 1) for _, up, _ in children} == {b"!"}:
            break
    elapsed = time.perf_counter() - start
    for pid, up, down in children:
        os.close(up)
        os.close(down)
        os.waitpid(pid, 0)
    return elapsed


def slowdown(kernel_s: float) -> float:
    """How many times slower than the reference host the program runs
    while the calibration kernel takes ``kernel_s``."""
    return (kernel_s / CALIBRATION_REF_S) ** CALIBRATION_EXPONENT


def tail(values: list[float]) -> float:
    """The value with ten samples above it (rank n-10 of n sorted values):
    the highest percentile that still has ten samples beyond it.  With ten
    samples or fewer no value qualifies and the maximum is returned."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def tail_percentile(n: int) -> float:
    """The percentile :func:`tail` reads for ``n`` samples."""
    return 100.0 * max(1, n - 10) / n


@dataclass
class TaskRecord:
    name: str
    start: float
    end: float
    cpu_s: float
    digest: str | None = None
    failure: str | None = None
    speed: float = 1.0  # slowdown() around this task

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def normalized_s(self) -> float:
        return self.seconds / self.speed


@dataclass
class RunResult:
    records: list[TaskRecord]
    metrics: dict[str, float]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.failure)

    def summary(self, spec: dict) -> dict:
        """The result line: correctness, counts and every metric with its
        unit from ``BENCHMARK.json``."""
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        return {
            "correct": self.failed == 0,
            "attempted": len(self.records),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()},
        }


def _cpu_now() -> float:
    """User+system CPU of this process and of every child it has reaped
    (the PDES coordinator's fork workers included)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_tasks(workload: Workload, tasks: list[Task], on_result=None,
               calibrated: bool = False) -> list[TaskRecord]:
    """Run ``tasks`` in order.  ``calibrated`` times the calibration kernel
    before every task and twice after the last, and sets each task's
    ``speed`` from the kernel times around it."""
    from repro.experiments.parallel import run_task

    records = []
    kernel = [calibrate(workload.processes)] if calibrated else []
    for task in tasks:
        cpu0 = _cpu_now()
        start = time.perf_counter()
        try:
            result, registry = run_task((task.fn, task.kwargs))
            failure = None
        except Exception as exc:  # a failed task is counted, not fatal
            failure = f"{type(exc).__name__}: {exc}"
        record = TaskRecord(task.name, start, time.perf_counter(),
                            _cpu_now() - cpu0, failure=failure)
        if calibrated:
            kernel.append(calibrate(workload.processes))
        records.append(record)
        if failure:
            continue
        record.digest = workload.digest(result)[:DIGEST_CHARS]
        bad = workload.violations(result)
        if bad:
            record.failure = f"{bad} invariant violation(s)"
        if on_result is not None:
            on_result(result, registry)
    if calibrated:
        kernel.append(calibrate(workload.processes))
        for i, record in enumerate(records):
            window = kernel[max(0, i - 1):i + 3]
            record.speed = slowdown(statistics.median(window))
    return records


def _gate(records: list[TaskRecord], goldens: dict[str, str]) -> None:
    """Mark every task whose digest differs from its golden, or from an
    earlier run of the same inputs in this process."""
    seen: dict[str, str] = {}
    for record in records:
        if record.failure:
            continue
        expected = goldens.get(record.name, seen.get(record.name))
        if expected is not None and expected != record.digest:
            record.failure = f"digest {record.digest} != expected {expected}"
        seen.setdefault(record.name, record.digest)


def _probe_args(workload: str, seed: int, seconds: float, smoke: bool,
                src: Path) -> list[str]:
    args = [sys.executable, "-m", "benchmarks.e2e", "--probe",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--src", str(src)]
    return args + (["--smoke"] if smoke else [])


def _setup_times(args: list[str]) -> list[float]:
    """Spawn the set-up probe ``SETUP_PROBES`` times, one after another;
    each time is spawn to the probe's ``ready`` line (interpreter start,
    imports and building the pass), normalized by the calibration kernel
    the probe times right after it is ready.  The probe's own kernel,
    unlike one timed here, runs on the CPU and at the speed its set-up
    ran."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            kernel = probe.stdout.readline()
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {args}")
        times.append(elapsed / slowdown(float(kernel)))
    return times


def _e2e_metrics(records: list[TaskRecord], setup: list[float]) -> dict:
    """End-to-end metrics, host times in reference-host seconds."""
    seconds = [r.normalized_s for r in records]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": sum(seconds),
        "cpu_s": sum(r.cpu_s / r.speed for r in records),
        "task_p50_ms": 1e3 * statistics.median(seconds),
        "task_tail_ms": 1e3 * tail(seconds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(self_kb, child_kb) / 1024,
    }


def _family_total(registry, name: str) -> float:
    family = registry.get(name)
    return family.value if family is not None else 0


def _percentile(registry, name: str, p: float) -> float:
    """Percentile over every label of a histogram family, interpolated in
    its log2 buckets the way :meth:`repro.obs.Histogram.percentile` does."""
    family = registry.get(name)
    if family is None or not family.count:
        return 0.0
    buckets: dict[int, int] = {}
    lo_seen, hi_seen = float("inf"), 0.0
    for _, child in family.children():
        if child.count:
            lo_seen, hi_seen = min(lo_seen, child.min), max(hi_seen, child.max)
        for bound, n in child.buckets.items():
            buckets[bound] = buckets.get(bound, 0) + n
    target = max(1, -(-family.count * p // 100))
    cumulative = 0
    for bound in sorted(buckets):
        n = buckets[bound]
        if cumulative + n >= target:
            lo = bound // 2 if bound > 1 else 0
            estimate = lo + (bound - lo) * (target - cumulative) / n
            return float(min(max(estimate, lo_seen), hi_seen))
        cumulative += n
    return float(hi_seen)


class _Fields:
    """Collects the result fields of soak and PDES tasks, and every task's
    metric registry, during the untraced half of a traced run."""

    def __init__(self):
        from repro.obs.metrics import MetricRegistry

        self.registry = MetricRegistry()
        self.soak: list[Any] = []
        self.pdes: list[dict] = []

    def __call__(self, result: Any, registry) -> None:
        self.registry.merge(registry)
        if hasattr(result, "violations"):
            self.soak.append(result)
        elif isinstance(result, dict) and "stats" in result:
            self.pdes.append(result["stats"])

    def metrics(self, wall_s: float) -> dict[str, float]:
        reg = self.registry
        total = lambda name: _family_total(reg, name)  # noqa: E731
        events = total("sim_events_processed")
        run_s = total("sim_wall_time_us") / 1e6
        hits, misses = total("omx_region_cache_hit"), total(
            "omx_region_cache_miss")
        bh_runs = total("softirq_bh_runs")
        torture = [r for r in self.soak if hasattr(r, "fallback_rate")]
        return {
            "sim.events": events,
            "sim.run_s": run_s,
            "sim.events_per_s": events / run_s if run_s else 0.0,
            "sim.outside_run_s": wall_s - run_s if run_s else 0.0,
            "sim.sim_ns": total("sim_time_ns"),
            "fabric.frames": (total("fabric_frames_carried")
                              + total("pdes_frames_local")
                              + total("pdes_frames_cross_shard")),
            "fabric.dropped": (total("fabric_frames_dropped")
                               + total("pdes_frames_dropped")),
            "nic.rx_ring_drops": total("nic_rx_ring_drops"),
            "softirq.frames_per_run": (total("softirq_frames_processed")
                                       / bh_runs if bh_runs else 0.0),
            "pin.calls": (reg.get("kernel_pin_latency_ns").count
                          if "kernel_pin_latency_ns" in reg else 0),
            "pin.failures": total("kernel_pin_failures"),
            "pin.wait_p50_ns": _percentile(reg, "omx_pin_wait_ns", 50),
            "pin.wait_p99_ns": _percentile(reg, "omx_pin_wait_ns", 99),
            "omx.cache_lookups": hits + misses,
            "omx.cache_hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
            "omx.cache_evictions": total("omx_region_cache_evict"),
            "omx.overlap_misses": (total("omx_overlap_miss_send")
                                   + total("omx_overlap_miss_recv")),
            "omx.retransmits": (total("omx_eager_retransmit")
                                + total("omx_rndv_retransmit")
                                + total("omx_pull_timeout_resend")),
            "omx.pin_fallbacks": (total("omx_pin_fallback_send")
                                  + total("omx_pin_fallback_recv")),
            "faults.injections": total("fault_injections") + sum(
                sum(r.injections.values()) for r in self.soak),
            "faults.transfers_ok": sum(r.transfers_ok for r in self.soak),
            "faults.transfers_degraded": sum(r.transfers_degraded
                                             for r in self.soak),
            "faults.violations": sum(len(r.violations) for r in self.soak),
            "torture.fallback_rate": (statistics.fmean(
                r.fallback_rate for r in torture) if torture else 0.0),
            "torture.recovery_p99_ns": max(
                (r.recovery_ns["p99"] for r in torture), default=0.0),
            "pdes.windows": sum(s["windows"] for s in self.pdes),
            "pdes.cross_shard_frames": sum(s["cross_shard_frames"]
                                           for s in self.pdes),
            "pdes.critical_path_s": sum(s["critical_path_s"]
                                        for s in self.pdes),
            "pdes.barrier_idle_s": sum(s["barrier_idle_s"]
                                       for s in self.pdes),
        }


def _profile_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _traced(workload: Workload, tasks: list[Task], src: Path
            ) -> tuple[list[TaskRecord], dict[str, float]]:
    from repro.cluster.builder import build_cluster
    from repro.sim.engine import Environment

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    records = run_tasks(workload, tasks)
    profiler.disable()
    metrics = {"trace.wall_s": time.perf_counter() - start}
    profiler.create_stats()
    stats = profiler.stats
    self_s, calls_in = split_profile(stats, src)
    for layer in [*LAYERS, BENCH]:
        metrics[f"layer.{layer}.self_s"] = self_s[layer]
        metrics[f"layer.{layer}.calls_in"] = calls_in[layer]
    for name, fn in (("span.build_cluster_s", build_cluster),
                     ("span.env_run_s", Environment.run)):
        entry = stats.get(_profile_key(fn))
        metrics[name] = entry[3] if entry else 0.0
    return records, metrics


def _write_chrome_trace(path: Path, workload: str,
                        records: list[TaskRecord]) -> None:
    """Workload -> task spans as Chrome trace-event JSON (microseconds)."""
    origin = records[0].start

    def span(name, span_id, parent, start, end):
        return {"name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent}}

    events = [span(workload, 0, None, origin, records[-1].end)]
    events += [span(r.name, i + 1, 0, r.start, r.end)
               for i, r in enumerate(records)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def run_workload(workload: Workload, seed: int, seconds: float, *,
                 trace: bool = False, smoke: bool = False,
                 src: Path = ROOT / "src") -> RunResult:
    """One run: the pass (untraced) or its traced sample, gated."""
    tasks = pass_tasks(workload, seed, seconds, smoke)
    golden = {name: digest for name, (digest, _) in
              load_goldens().get(workload.name, {}).items()}
    if not trace:
        records = run_tasks(workload, tasks, calibrated=True)
        _gate(records, golden)
        setup = _setup_times(_probe_args(workload.name, seed, seconds, smoke,
                                         src))
        return RunResult(records, _e2e_metrics(records, setup))

    sample = tasks[:-(-len(tasks) // workload.trace_share)]
    if workload.name == "openmx_sharded":
        # Shard work must run in this process to be profiled; the
        # coordinator guarantees the same end state in either mode.
        sample = [Task(t.name, t.fn, {**t.kwargs, "mode": "inline"})
                  for t in sample]
    fields = _Fields()
    plain = run_tasks(workload, sample, on_result=fields)
    traced, metrics = _traced(workload, sample, src)
    records = plain + traced
    _gate(records, golden)
    plain_s = sum(r.seconds for r in plain)
    metrics["trace.overhead_x"] = sum(r.seconds for r in traced) / plain_s
    metrics.update(fields.metrics(plain_s))
    _write_chrome_trace(
        ROOT / ".e2e_out" / f"trace-{workload.name}-seed{seed}.json",
        workload.name, traced)
    return RunResult(records, metrics)
