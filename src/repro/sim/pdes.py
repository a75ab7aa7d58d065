"""Conservative-lookahead parallel discrete-event simulation (PDES).

One scenario's hosts are partitioned across shards
(:func:`repro.cluster.builder.partition_hosts`); each shard runs its own
:class:`~repro.sim.Environment` and the coordinator advances all of them
in lock-stepped *conservative windows* derived from the minimum
cross-shard fabric latency.  In fork mode the coordinator hosts shard 0
itself and forks one worker per other shard; in inline mode it runs
every shard in its own process.  The scenario it drives is
``openmx_shard`` (:mod:`repro.sim.openmx_shard`): complete Open-MX hosts
on per-shard sub-clusters wired to a
:class:`~repro.cluster.network.ShardEtherFabric`.

Window rule.  Let ``gmin`` be the global minimum over (a) every shard's
:meth:`~repro.sim.Environment.next_event_time` and (b) the arrival
instants of cross-shard frames routed at the last barrier but not yet
ingested.  The next window runs every shard to::

    end = gmin + lookahead - 1          (lookahead <= min fabric latency)

Any frame carried *during* that window is sent at an instant ``t >= gmin``
(causality: nothing can fire before the global minimum), so it arrives at
``t + latency >= gmin + lookahead > end`` — strictly after the window.
Cross-shard traffic therefore only ever lands in a *future* window, and
exchanging frames at the barrier between windows is race-free.
:meth:`repro.cluster.network.ShardEtherFabric.ingress` enforces this with
a hard error rather than trusting the math.  The null-message trick falls
out of the same rule: an idle shard reports ``next_event_time() = None``
and simply stops constraining ``gmin``, so windows stretch to the next
real work instead of ticking through dead air.

Determinism.  The whole point of the exercise is that sharded runs are
**byte-identical** to serial ones.  Two disciplines make that true:

* *Canonical same-instant merge order* — the shard fabric batches
  deliveries per ``(arrival, destination)`` and sorts each batch by the
  frame's ``(src, seq, copy)`` key, so delivery order never depends on
  which shard a frame came from or when its timer object was created.
* *Pure fault plans* — :class:`SeededFaultPlan` decides drop/duplicate/
  delay from a hash of ``(seed, src, dst, seq)`` alone, so chaos verdicts
  are identical at every shard count.

Because the window sequence itself is a pure function of global event
times (identical at every shard count), a one-shard run *is* the serial
baseline: same code path, same windows, no cross-shard traffic.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time as _time
import traceback
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.builder import ShardPlan
from repro.experiments.parallel import merge_worker_registries
from repro.obs.metrics import MetricRegistry, current_registry
from repro.sim.engine import SimulationError

__all__ = [
    "SeededFaultPlan",
    "host_core_count",
    "resolve_shards",
    "shards_arg",
    "run_partitioned",
]

_MASK64 = (1 << 64) - 1

# How long the coordinator waits for any one reply of a forked worker (its
# built shard's first event time, a window's result, its end state) before
# it terminates the worker and fails the run.  A window of the canned
# 16-host scenario takes milliseconds.
REPLY_DEADLINE_S = 60.0


def _mix(x: int) -> int:
    """splitmix64 finalizer: a high-quality pure integer hash.

    Python's builtin ``hash`` is salted per-process for strings and is
    the identity for small ints — useless for cross-process-reproducible
    fault verdicts.  This is the standard 64-bit mixer instead.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SeededFaultPlan:
    """Chaos verdicts as a pure function of the frame key.

    ``plan(src, dst, seq) -> (drop, copies, extra_delay_ns)`` depends only
    on ``(seed, src, dst, seq)`` — never on which shard evaluates it or in
    what order — so a faulted run makes identical decisions at every shard
    count.  Extra delay is quantised to an **even** number of nanoseconds;
    the committed chaos and ``openmx_shard`` digests were recorded under
    that rule, so it stays.
    """

    seed: int
    drop_per_mille: int = 0
    dup_per_mille: int = 0
    delay_per_mille: int = 0
    delay_quantum_ns: int = 2_000
    max_delay_quanta: int = 8

    def __post_init__(self) -> None:
        if self.delay_quantum_ns % 2:
            raise ValueError("delay_quantum_ns must be even, "
                             f"got {self.delay_quantum_ns}")
        if self.max_delay_quanta <= 0:
            raise ValueError("max_delay_quanta must be positive")

    @property
    def max_extra_delay_ns(self) -> int:
        return self.max_delay_quanta * self.delay_quantum_ns

    def __call__(self, src: int, dst: int, seq: int) -> tuple[bool, int, int]:
        h = _mix(self.seed * 0x9E3779B97F4A7C15
                 + _mix((src << 40) ^ (dst << 20) ^ seq))
        drop = h % 1000 < self.drop_per_mille
        h = _mix(h)
        copies = 2 if h % 1000 < self.dup_per_mille else 1
        h = _mix(h)
        extra = 0
        if h % 1000 < self.delay_per_mille:
            extra = (1 + _mix(h) % self.max_delay_quanta) * self.delay_quantum_ns
        return drop, copies, extra


# -- worker plumbing ----------------------------------------------------------
#
# A shard factory is any picklable callable ``factory(shard_id, plan) ->
# shard`` returning an object with the shard protocol — ``next_time()``,
# ``ingress(entries)``, ``run_window(until) -> (egress, next_time,
# busy_s)``, ``end_state()`` and a ``registry`` attribute — as
# :class:`repro.sim.openmx_shard.OpenmxShard` does.


def _shard_worker(conn, shard_id: int, plan: ShardPlan, factory,
                  inherited) -> None:
    """Forked shard worker: build the shard, then serve window commands."""
    # The coordinator's ends of this and every earlier shard's pipe: closed
    # here, so that the coordinator closing them means EOF to the worker.
    for end in inherited:
        end.close()
    try:
        shard = factory(shard_id, plan)
        conn.send(("time", shard.next_time()))
        while True:
            msg = conn.recv()
            if msg[0] == "window":
                _, end, ingress = msg
                shard.ingress(ingress)
                egress, nxt, busy = shard.run_window(end)
                conn.send(("done", egress, nxt, busy))
            elif msg[0] == "finish":
                conn.send(("state", shard.end_state(), shard.registry))
                return
            else:
                raise SimulationError(f"unknown shard command {msg[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


class _ForkHandle:
    """Coordinator-side proxy for a forked shard worker."""

    def __init__(self, shard_id: int, plan: ShardPlan, factory,
                 earlier: list[_ForkHandle]) -> None:
        self.shard_id = shard_id
        self.window = -1  # index of the last window command sent
        self.wait_s = 0.0  # wall time spent blocked on this worker's replies
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_shard_worker,
                                args=(child, shard_id, plan, factory,
                                      [h.conn for h in [*earlier, self]]),
                                daemon=True)
        self.proc.start()
        child.close()

    def _died(self, exc: Exception) -> SimulationError:
        """A broken pipe means the worker is gone: say which one, and how."""
        self.proc.join(timeout=5)
        return SimulationError(
            f"PDES shard {self.shard_id} worker died (exit code "
            f"{self.proc.exitcode}): {type(exc).__name__}: {exc}")

    def _send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError as exc:
            raise self._died(exc) from exc

    def _recv(self, want: str, during: str):
        start = _time.perf_counter()
        try:
            if not self.conn.poll(REPLY_DEADLINE_S):
                # Hung, not dead: nothing else would ever reap it.
                self.proc.terminate()
                self.proc.join(timeout=5)
                raise SimulationError(
                    f"PDES shard {self.shard_id} worker missed the "
                    f"{REPLY_DEADLINE_S:g} s reply deadline {during}; "
                    "terminated it")
            msg = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died(exc) from exc
        finally:
            self.wait_s += _time.perf_counter() - start
        if msg[0] == "error":
            raise SimulationError(
                f"PDES shard {self.shard_id} worker failed:\n{msg[1]}")
        if msg[0] != want:
            raise SimulationError(f"expected {want!r} from shard worker, "
                                  f"got {msg[0]!r}")
        return msg[1:]

    def initial_next(self):
        return self._recv("time", "while building its shard")[0]

    def start_window(self, end: int, ingress) -> None:
        self.window += 1
        self._send(("window", end, ingress))

    def finish_window(self):
        return self._recv("done", f"in window {self.window}")

    def finish(self):
        self._send(("finish",))
        return self._recv("state", "for its end state")

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=10)


class _InlineHandle:
    """Same protocol as :class:`_ForkHandle`, driven in-process: shard 0 in
    fork mode, and every shard of the serial baseline (``shards=1``) and of
    inline runs — the shard code path is identical either way."""

    wait_s = 0.0  # nothing to wait for: the window ran in start_window

    def __init__(self, shard_id: int, plan: ShardPlan, factory) -> None:
        try:
            self.shard = factory(shard_id, plan)
        except Exception as exc:
            raise SimulationError(
                f"PDES shard {shard_id} factory failed: "
                f"{type(exc).__name__}: {exc}") from exc
        self._reply = None

    def initial_next(self):
        return self.shard.next_time()

    def start_window(self, end: int, ingress) -> None:
        self.shard.ingress(ingress)
        self._reply = self.shard.run_window(end)

    def finish_window(self):
        reply, self._reply = self._reply, None
        return reply

    def finish(self):
        return self.shard.end_state(), self.shard.registry

    def close(self) -> None:
        pass


# -- coordinator --------------------------------------------------------------


def _merge_states(states: Sequence[dict]) -> dict:
    """Fold per-shard end states into one shard-count-independent state.

    ``now_ns`` must agree (shards barrier on the same window end);
    ``events`` sum; ``hosts`` concatenate sorted by global id; any other
    top-level key must be a flat dict of numeric totals (e.g. the fabric
    counters) and is summed field-wise — which keeps the function generic
    across scenarios without per-scenario merge code.
    """
    nows = {st["now_ns"] for st in states}
    if len(nows) != 1:
        raise SimulationError(
            f"shard clocks diverged at the final barrier: {sorted(nows)}")
    state = {
        "now_ns": nows.pop(),
        "events": sum(st["events"] for st in states),
        "hosts": sorted((h for st in states for h in st["hosts"]),
                        key=lambda h: h["id"]),
    }
    for key, value in states[0].items():
        if key in ("now_ns", "events", "hosts"):
            continue
        if not isinstance(value, dict):
            raise SimulationError(
                f"cannot merge shard-state key {key!r}: expected a dict of "
                f"numeric totals, got {type(value).__name__}")
        state[key] = {k: sum(st[key][k] for st in states) for k in value}
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    state["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    return state


def run_partitioned(factory, plan: ShardPlan, *, lookahead_ns: int,
                    mode: str | None = None,
                    registry: MetricRegistry | None = None) -> dict:
    """Drive one partitioned scenario through conservative windows.

    ``factory(shard_id, plan)`` builds one shard (see the worker-plumbing
    note above for the shard protocol); forked workers call it after
    ``fork()``.  ``mode`` is ``"fork"`` or ``"inline"`` (all shards driven
    in this process — same code path, no parallelism); the default forks
    only when there is more than one shard.  In fork mode this process
    runs shard 0 itself and forks a worker for each other shard, before
    building shard 0 so that no worker inherits its pages; every window
    sends the workers their commands before it runs shard 0, so all
    shards run at once.  Replies, end states and registries are read in
    shard order in either mode.

    Returns ``{"state": ..., "stats": ...}`` where ``state`` is
    byte-identical for every ``(nshards, mode, partition)`` choice and
    ``stats`` carries the window and barrier accounting: each shard's
    summed ``run_window`` busy time and its idle time at the barriers
    (the slowest shard's busy time minus its own, per window), in shard
    order, and ``coordinator_wait_s``, the wall time this process spent
    blocked on worker replies.  A worker that sends no reply within
    ``REPLY_DEADLINE_S`` is terminated and fails the run, naming its
    shard and window.
    """
    if lookahead_ns <= 0:
        raise ValueError(f"lookahead_ns must be positive, got {lookahead_ns}")
    nshards = plan.nshards
    if mode is None:
        mode = "fork" if nshards > 1 else "inline"
    if mode not in ("fork", "inline"):
        raise ValueError(f"unknown mode {mode!r}")

    wall_start = _time.perf_counter()
    handles: list = []
    order = [*range(1, nshards), 0] if mode == "fork" else range(nshards)
    try:
        if mode == "fork":
            for s in range(1, nshards):
                handles.append(_ForkHandle(s, plan, factory, handles))
            handles.insert(0, _InlineHandle(0, plan, factory))
        else:
            for s in range(nshards):
                handles.append(_InlineHandle(s, plan, factory))
        next_times = [h.initial_next() for h in handles]
        pending: list[list] = [[] for _ in handles]
        windows = 0
        advance_ns = 0
        cross_frames = 0
        busy_by_shard = [0.0] * nshards
        idle_by_shard = [0.0] * nshards
        critical_path_s = 0.0
        prev_end = 0
        while True:
            cands = [t for t in next_times if t is not None]
            cands.extend(a for ing in pending for a, _ in ing)
            if not cands:
                break
            end = min(cands) + lookahead_ns - 1
            # Send every forked shard its command before running shard 0
            # here, which runs the window at once: that is what makes the
            # shards run concurrently rather than round-robin.
            for s in order:
                handles[s].start_window(end, pending[s])
            pending = [[] for _ in handles]
            replies = [h.finish_window() for h in handles]
            windows += 1
            advance_ns += end - prev_end
            prev_end = end
            busies = [r[2] for r in replies]
            bmax = max(busies)
            critical_path_s += bmax
            for s, busy in enumerate(busies):
                busy_by_shard[s] += busy
                idle_by_shard[s] += bmax - busy
            next_times = [r[1] for r in replies]
            for egress, _, _ in replies:
                for arrival, frame in egress:
                    pending[plan.shard_of(frame.dst)].append((arrival, frame))
                    cross_frames += 1
        states = []
        registries = []
        for handle in handles:
            st, reg = handle.finish()
            states.append(st)
            registries.append(reg)
    finally:
        for handle in handles:
            handle.close()
    wall = _time.perf_counter() - wall_start
    barrier_idle_s = sum(idle_by_shard)

    target = current_registry() if registry is None else registry
    if target is not None:
        target.counter(
            "pdes_windows",
            "conservative windows executed by the PDES coordinator",
        ).inc(windows)
        target.counter(
            "pdes_lookahead_ns",
            "simulated nanoseconds advanced across PDES windows",
        ).inc(advance_ns)
        target.counter(
            "pdes_barrier_wait_us",
            "aggregate shard idle time at PDES window barriers",
        ).inc(int(barrier_idle_s * 1e6))
    # Worker registries carry the per-shard pdes_frames_*, omx_* and sim_*
    # series; fold them in shard order so aggregation is deterministic.
    merge_worker_registries(registries, into=registry)

    return {
        "state": _merge_states(states),
        "stats": {
            "shards": nshards,
            "mode": mode,
            "lookahead_ns": lookahead_ns,
            "windows": windows,
            "advance_ns": advance_ns,
            "cross_shard_frames": cross_frames,
            "wall_s": wall,
            "critical_path_s": critical_path_s,
            "barrier_idle_s": barrier_idle_s,
            "busy_s_by_shard": busy_by_shard,
            "idle_s_by_shard": idle_by_shard,
            "coordinator_wait_s": sum(h.wait_s for h in handles),
        },
    }


# -- shard-count policy -------------------------------------------------------


def host_core_count() -> int:
    """Cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_shards(spec: int | str, default: int = 4) -> int:
    """Resolve a ``--shards`` value; ``"auto"`` caps at the core count.

    Forked shards beyond the host's cores only time-share — the wall can
    even regress vs serial while the critical path still shrinks (the
    ``core_starved`` flag in A/B reports makes that explicit).  ``auto``
    picks ``min(default, host_core_count())`` so a laptop CI runner never
    starts a core-starved fleet by default, while an explicit integer is
    always honoured.
    """
    if isinstance(spec, str):
        spec = spec.strip().lower()
        if spec == "auto":
            return max(1, min(default, host_core_count()))
        try:
            value = int(spec)
        except ValueError:
            raise ValueError(f"--shards expects an integer or 'auto', "
                             f"got {spec!r}") from None
    else:
        value = spec
    if value <= 0:
        raise ValueError(f"shard count must be positive, got {value}")
    return value


def shards_arg(value: str) -> int:
    """:func:`resolve_shards` as the argparse ``type`` of the microbench's
    ``--shards`` (``python -m repro.sim.bench``): a bad value is a usage
    error (exit 2)."""
    try:
        return resolve_shards(value)
    except ValueError as exc:
        import argparse  # only a CLI gets here; keep it off module load

        raise argparse.ArgumentTypeError(str(exc)) from None
