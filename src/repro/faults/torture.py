"""Registration-cache torture suite: adversarial pin-path workloads.

Where :mod:`repro.faults.chaos` storms the *network* while a light VM-churn
process runs in the background, the torture harness attacks the **pinning
machinery itself**: every episode is chosen to stress a specific seam of the
decoupled-pinning design —

* **fork/COW storms** — ``fork(2)`` children share the communication
  buffers copy-on-write while transfers are in flight; parent and child
  writes break the shares, firing MMU notifiers into mid-pin regions
  (the COW-vs-GUP seam: pinned pages are eagerly copied at fork, shared
  pages break on first write);
* **malloc-reuse thrash** — idle buffers are freed and re-mallocʼd in LIFO
  storms so the same virtual addresses come back with different backing,
  churning the user-space region cache across its LRU boundary (the cache
  capacity is deliberately tiny here);
* **overlapping-region pins** — two slices of one buffer are sent
  concurrently, so two regions pin the same frames and a mid-pin failure in
  one must roll back only its own references;
* **budget storms** — every endpoint pins a large region at once against a
  deliberately tiny pinned-page budget, driving reclaim, the fair admission
  queue (odd seeds), bounded waits, denials, and copy-through fallback;
* **VM churn** — swap-out / COW-duplicate / migration over busy and idle
  buffers, exactly the invalidation traffic MMU notifiers exist for.

After **every** episode the harness drains the simulation to quiescence and
runs the recovery oracle: zero leaked pinned frames (every pin reference
reachable from a live region), zero dangling notifier registrations, and —
at teardown — fully balanced pin accounting.  Recovery time (drain tail
after the last request completes) and fallback rate are recorded via
:mod:`repro.obs` histograms.

Everything is a pure function of ``(seed, steps)``; the run digest must be
byte-identical across repeats (CI gates on this).

CLI::

    python -m repro.faults.torture --seeds 25 --steps 400
    python -m repro.faults.torture --seed 7 --steps 120 --json
    python -m repro.faults.torture --until-failure --steps 200
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field

from repro.cluster.builder import build_cluster
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.hw.memory import OutOfMemory
from repro.obs.metrics import MetricRegistry
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.util.units import KIB, MILLISECOND

__all__ = ["TortureResult", "run_torture"]

# Message-size ladder: one eager class, three rendezvous classes up to 128
# pages — the large end is what collides with the pin budget.
SIZES = (16_000, 48 * KIB, 160_000, 512 * KIB)
POOL_BUFFERS = 3  # communication buffers per process
BUF_SIZE = 512 * KIB  # 128 pages each
PROCS_PER_HOST = 3
MAX_CHILDREN = 4  # live fork children per process
# Pinned-page budget per host: less than half of what a budget storm asks
# for (6 concurrent 128-page regions per host), so exhaustion is the norm.
PIN_BUDGET_PAGES = 192
PAIR_BUDGET_NS = 100 * MILLISECOND  # per-transfer give-up budget
EPISODE_BUDGET_NS = 4 * PAIR_BUDGET_NS  # hard liveness deadline per episode

EPISODES = ("burst", "fork_storm", "realloc_thrash", "overlap_pair",
            "budget_storm", "vm_churn")


@dataclass
class TortureResult:
    seed: int
    steps: int
    mode: str
    queue: bool
    validate: bool
    finished: bool
    elapsed_ns: int
    transfers_ok: int
    transfers_degraded: int
    episode_counts: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    recovery_ns: dict = field(default_factory=dict)  # p50/p99/max
    fallback_rate: float = 0.0
    injections: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    digest: str = ""

    @property
    def clean(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "mode": self.mode,
            "queue": self.queue,
            "validate": self.validate,
            "finished": self.finished,
            "elapsed_ns": self.elapsed_ns,
            "transfers_ok": self.transfers_ok,
            "transfers_degraded": self.transfers_degraded,
            "episode_counts": dict(self.episode_counts),
            "stats": dict(self.stats),
            "recovery_ns": dict(self.recovery_ns),
            "fallback_rate": self.fallback_rate,
            "injections": dict(self.injections),
            "violations": [str(v) for v in self.violations],
            "digest": self.digest,
        }


def _pattern(nbytes: int, salt: int) -> bytes:
    block = bytes((i + salt) % 256 for i in range(256))
    return (block * (nbytes // 256 + 1))[:nbytes]


@dataclass
class _Buffer:
    va: int
    size: int
    busy: int = 0  # refcount: overlapping sends share one buffer


def _torture_plan(seed: int) -> FaultPlan:
    """Light, pin-focused fault plan: no network loss (liveness stays
    tight), transient pin failures on even seeds, slow pins on every
    fourth."""
    return FaultPlan(
        seed=seed,
        pin_fail_prob=0.2 if seed % 2 == 0 else 0.0,
        pin_max_failures=6,
        pin_delay_ns=10_000 if seed % 4 == 0 else 0,
    )


def run_torture(seed: int, steps: int,
                mode: PinningMode | None = None) -> TortureResult:
    """One seeded torture run; returns the result without raising."""
    rng = random.Random(seed * 2654435761 + 97)
    if mode is None:
        mode = list(PinningMode)[seed % len(PinningMode)]
    queue_on = seed % 2 == 1
    config = OpenMXConfig(
        pinning_mode=mode,
        resend_timeout_ns=2 * MILLISECOND,
        max_resend_rounds=4,
        # Tiny cache: the size ladder alone overflows it, so every seed
        # crosses the LRU boundary constantly.
        region_cache_capacity=4,
        pin_queue_enabled=queue_on,
        pin_queue_wait_max_ns=500_000,
        pin_queue_max_share=0.75 if seed % 4 == 3 else 1.0,
        region_cache_validate=seed % 3 == 0,
    )
    registry = MetricRegistry()
    cluster = build_cluster(procs_per_host=PROCS_PER_HOST, config=config,
                            trace=False, metrics=registry)
    for node in cluster.nodes:
        node.host.memory.max_pinned = PIN_BUDGET_PAGES
    plan = _torture_plan(seed)
    applied = plan.apply(cluster)
    checker = InvariantChecker(cluster)
    env = cluster.env
    nhosts = len(cluster.nodes)

    recovery_hist = registry.histogram(
        "torture_recovery_ns",
        "per-episode recovery: attack start -> full quiescence",
        sample_capacity=8192)

    pools: list[list[list[_Buffer]]] = []  # [node][proc][buffer]
    for node in cluster.nodes:
        per_node = []
        for proc in node.procs:
            per_node.append([_Buffer(proc.malloc(BUF_SIZE), BUF_SIZE)
                             for _ in range(POOL_BUFFERS)])
        pools.append(per_node)

    children: dict[tuple[int, int], list] = {
        (n, p): [] for n in range(nhosts) for p in range(PROCS_PER_HOST)
    }
    completed: list[tuple[str, object]] = []
    stats = {"forks": 0, "fork_oom": 0, "children_destroyed": 0,
             "reallocs": 0, "vm_ops": 0, "child_writes": 0,
             "parent_writes": 0}
    episode_counts = {name: 0 for name in EPISODES}
    episode_log: list[str] = []

    # -- transfer machinery (chaos-style, with pair-level recovery) --------
    def spawn_transfer(label: str, src: tuple[int, int], dst: tuple[int, int],
                       sbuf: _Buffer, soff: int, rbuf: _Buffer,
                       nbytes: int, tag: int, data: bytes | None = None):
        sl = cluster.lib(*src)
        rl = cluster.lib(*dst)
        rp = cluster.nodes[dst[0]].procs[dst[1]]
        sbuf.busy += 1
        rbuf.busy += 1
        if data is None:
            data = _pattern(nbytes, tag * 131 + seed)
            cluster.nodes[src[0]].procs[src[1]].write(sbuf.va + soff, data)
        pair: dict[str, object] = {}

        def sender():
            req = yield from sl.isend(sbuf.va + soff, nbytes, rl.board,
                                      rl.endpoint_id, tag)
            pair["send"] = req
            yield from sl.wait(req)
            completed.append((f"send {label}", req))

        def receiver():
            req = yield from rl.irecv(rbuf.va, nbytes, tag)
            pair["recv"] = req
            yield from rl.wait(req)
            completed.append((f"recv {label}", req))
            if req.status == "ok":
                checker.check_payload(rp, rbuf.va, data, f"recv {label}")

        def transfer():
            both = env.all_of([env.process(sender(), name=f"tor.s{tag}"),
                               env.process(receiver(), name=f"tor.r{tag}")])
            budget = env.timeout(PAIR_BUDGET_NS)
            yield env.any_of([both, budget])
            if not both.triggered:
                # MX keeps no connection state: a sender that gave up never
                # tells the receiver.  Drain the sender's events, then cancel
                # the orphaned unmatched recv iff the send failed terminally.
                yield from sl.progress()
                sreq, rreq = pair.get("send"), pair.get("recv")
                if (sreq is not None and sreq.done and sreq.status != "ok"
                        and rreq is not None):
                    rl.cancel(rreq)
                yield both
            budget.cancel()
            sbuf.busy -= 1
            rbuf.busy -= 1

        return env.process(transfer(), name=f"tor.t{tag}")

    def pick_pair(prng) -> tuple[tuple[int, int], tuple[int, int]]:
        src_n = prng.randrange(nhosts)
        return ((src_n, prng.randrange(PROCS_PER_HOST)),
                (1 - src_n, prng.randrange(PROCS_PER_HOST)))

    def idle_buffer(node_i: int, proc_i: int, prng) -> _Buffer | None:
        bufs = [b for b in pools[node_i][proc_i] if b.busy == 0]
        return prng.choice(bufs) if bufs else None

    def vm_op(node_i: int, proc_i: int, buf: _Buffer, prng) -> None:
        """One VM-pressure event.  Busy buffers get only payload-safe ops
        (swap/COW/migrate preserve contents and skip or copy pinned frames);
        idle buffers additionally get the free+malloc reuse pattern."""
        proc = cluster.nodes[node_i].procs[proc_i]
        op = prng.randrange(4 if buf.busy == 0 else 3)
        if op == 0:
            proc.aspace.swap_out(buf.va, buf.size)
        elif op == 1:
            proc.aspace.cow_duplicate(buf.va, buf.size)
        elif op == 2:
            proc.aspace.migrate(buf.va, buf.size)
        else:
            proc.free(buf.va)
            buf.va = proc.malloc(buf.size)
            stats["reallocs"] += 1
        stats["vm_ops"] += 1

    def fork_child(step: int, node_i: int, proc_i: int, prng) -> None:
        key = (node_i, proc_i)
        if len(children[key]) >= MAX_CHILDREN:
            old = children[key].pop(0)
            old.aspace.destroy()
            stats["children_destroyed"] += 1
        parent = cluster.nodes[node_i].procs[proc_i]
        try:
            child = parent.fork(f"fork{step}.{node_i}.{proc_i}")
        except OutOfMemory:
            stats["fork_oom"] += 1
            return
        stats["forks"] += 1
        checker.extra_aspaces.append(child.aspace)
        children[key].append(child)
        # COW traffic on the communication buffers: the child scribbles on
        # its own view (breaking shares child-side), and the parent dirties
        # an idle buffer (breaking shares parent-side, which notifies and
        # invalidates any cached pinned region over it).
        buf = pools[node_i][proc_i][prng.randrange(POOL_BUFFERS)]
        child.write(buf.va, _pattern(8 * KIB, step + 7))
        stats["child_writes"] += 1
        ibuf = idle_buffer(node_i, proc_i, prng)
        if ibuf is not None:
            parent.write(ibuf.va, _pattern(8 * KIB, step + 11))
            stats["parent_writes"] += 1

    # -- episodes ----------------------------------------------------------
    def ep_burst(step: int, prng):
        """1-3 concurrent transfers with VM churn racing them."""
        procs = []
        for idx in range(prng.randrange(1, 4)):
            src, dst = pick_pair(prng)
            rbuf = idle_buffer(*dst, prng)
            sbuf = idle_buffer(*src, prng)
            if rbuf is None or sbuf is None:
                continue
            nbytes = prng.choice(SIZES)
            tag = step * 16 + idx + 1
            procs.append(spawn_transfer(
                f"step{step}.{idx} {src}->{dst} {nbytes}B",
                src, dst, sbuf, 0, rbuf, nbytes, tag))
        for _ in range(prng.randrange(0, 4)):
            yield env.timeout(20_000 + prng.randrange(80_000))
            node_i = prng.randrange(nhosts)
            proc_i = prng.randrange(PROCS_PER_HOST)
            buf = pools[node_i][proc_i][prng.randrange(POOL_BUFFERS)]
            vm_op(node_i, proc_i, buf, prng)
        if procs:
            yield env.all_of(procs)

    def ep_fork_storm(step: int, prng):
        """Forks racing an in-flight transfer; parent/child COW writes."""
        src, dst = pick_pair(prng)
        rbuf = idle_buffer(*dst, prng)
        sbuf = idle_buffer(*src, prng)
        procs = []
        if rbuf is not None and sbuf is not None:
            nbytes = prng.choice(SIZES[1:])  # rendezvous: regions pinned
            procs.append(spawn_transfer(
                f"step{step}.0 {src}->{dst} {nbytes}B fork",
                src, dst, sbuf, 0, rbuf, nbytes, step * 16 + 1))
        for k in range(prng.randrange(1, 4)):
            yield env.timeout(10_000 + prng.randrange(90_000))
            fork_child(step, prng.randrange(nhosts),
                       prng.randrange(PROCS_PER_HOST), prng)
        if procs:
            yield env.all_of(procs)

    def ep_realloc_thrash(step: int, prng):
        """LIFO free/malloc storms over idle buffers, then a transfer that
        lands on the recycled addresses (stale-cache bait)."""
        node_i = prng.randrange(nhosts)
        proc_i = prng.randrange(PROCS_PER_HOST)
        proc = cluster.nodes[node_i].procs[proc_i]
        idle = [b for b in pools[node_i][proc_i] if b.busy == 0]
        for buf in idle:
            proc.free(buf.va)
        for buf in reversed(idle):  # LIFO: addresses come back permuted
            buf.va = proc.malloc(buf.size)
            stats["reallocs"] += 1
        src = (node_i, proc_i)
        dst = (1 - node_i, prng.randrange(PROCS_PER_HOST))
        rbuf = idle_buffer(*dst, prng)
        if rbuf is not None and idle:
            nbytes = prng.choice(SIZES)
            yield from _wait_one(spawn_transfer(
                f"step{step}.0 {src}->{dst} {nbytes}B realloc",
                src, dst, idle[0], 0, rbuf, nbytes, step * 16 + 1))

    def ep_overlap_pair(step: int, prng):
        """Two overlapping slices of one buffer to two receivers: two
        regions pin the same frames concurrently."""
        src_n = prng.randrange(nhosts)
        src = (src_n, prng.randrange(PROCS_PER_HOST))
        dst_a = (1 - src_n, prng.randrange(PROCS_PER_HOST))
        dst_b = (1 - src_n, prng.randrange(PROCS_PER_HOST))
        rbuf_a = idle_buffer(*dst_a, prng)
        rbuf_b = idle_buffer(*dst_b, prng)
        if rbuf_a is None or rbuf_b is None or rbuf_a is rbuf_b:
            return
        sbuf = pools[src[0]][src[1]][prng.randrange(POOL_BUFFERS)]
        base = _pattern(BUF_SIZE, step * 131 + seed)
        cluster.nodes[src[0]].procs[src[1]].write(sbuf.va, base)
        len_a = prng.choice(SIZES[1:3])
        len_b = prng.choice(SIZES[1:3])
        off_b = prng.choice((0, 4 * KIB, 16 * KIB))  # overlaps [0, len_a)
        procs = [
            spawn_transfer(f"step{step}.0 {src}->{dst_a} {len_a}B ovl",
                           src, dst_a, sbuf, 0, rbuf_a, len_a,
                           step * 16 + 1, data=base[:len_a]),
            spawn_transfer(f"step{step}.1 {src}->{dst_b} {len_b}B ovl",
                           src, dst_b, sbuf, off_b, rbuf_b, len_b,
                           step * 16 + 2, data=base[off_b:off_b + len_b]),
        ]
        yield env.all_of(procs)

    def ep_budget_storm(step: int, prng):
        """Every endpoint sends 128 pages at once: 2x the host budget."""
        procs = []
        for proc_i in range(PROCS_PER_HOST):
            for src_n in range(nhosts):
                src = (src_n, proc_i)
                dst = (1 - src_n, proc_i)
                rbuf = idle_buffer(*dst, prng)
                sbuf = idle_buffer(*src, prng)
                if rbuf is None or sbuf is None:
                    continue
                tag = step * 16 + proc_i * 2 + src_n + 1
                procs.append(spawn_transfer(
                    f"step{step}.{proc_i * 2 + src_n} {src}->{dst} "
                    f"{BUF_SIZE}B storm",
                    src, dst, sbuf, 0, rbuf, BUF_SIZE, tag))
        if procs:
            yield env.all_of(procs)

    def ep_vm_churn(step: int, prng):
        """Pure VM pressure, no transfers: exercises idle-region unpin."""
        for _ in range(prng.randrange(3, 8)):
            node_i = prng.randrange(nhosts)
            proc_i = prng.randrange(PROCS_PER_HOST)
            buf = pools[node_i][proc_i][prng.randrange(POOL_BUFFERS)]
            vm_op(node_i, proc_i, buf, prng)
            yield env.timeout(5_000 + prng.randrange(20_000))

    def _wait_one(proc):
        yield env.all_of([proc])

    episode_fns = {"burst": ep_burst, "fork_storm": ep_fork_storm,
                   "realloc_thrash": ep_realloc_thrash,
                   "overlap_pair": ep_overlap_pair,
                   "budget_storm": ep_budget_storm, "vm_churn": ep_vm_churn}
    weights = {"burst": 0.30, "fork_storm": 0.15, "realloc_thrash": 0.15,
               "overlap_pair": 0.15, "budget_storm": 0.15, "vm_churn": 0.10}

    def pick_episode(prng) -> str:
        x = prng.random()
        acc = 0.0
        for name in EPISODES:
            acc += weights[name]
            if x < acc:
                return name
        return EPISODES[-1]

    # -- main loop: episode -> drain -> recovery oracle --------------------
    finished = True
    for step in range(steps):
        name = pick_episode(rng)
        episode_counts[name] += 1
        episode_log.append(f"{step}:{name}")
        ep_start = env.now
        ep = env.process(episode_fns[name](step, rng), name=f"tor.ep{step}")
        deadline = env.timeout(EPISODE_BUDGET_NS)
        env.run(until=env.any_of([ep, deadline]))
        if not ep.triggered:
            checker.check_workload_finished(
                False, f"episode {step} ({name}) stuck after "
                       f"{EPISODE_BUDGET_NS} ns at t={env.now}")
            finished = False
            break
        deadline.cancel()
        env.purge_cancelled()  # dead watchdog/budget timers must not
        env.run()              # stretch the drain; run to quiescence
        recovery_hist.observe(env.now - ep_start)
        # Recovery oracle: every episode must leave the machine consistent.
        checker.check_frame_leaks()
        checker.check_notifier_registrations()
        if not checker.clean:
            finished = False
            break

    if finished:
        for label, req in completed:
            checker.check_request_terminal(req, label)
        for n, lib in enumerate(cluster.all_libs()):
            checker.check_endpoint_quiescent(lib, f"lib{n}")
        for kids in children.values():
            for child in kids:
                child.aspace.destroy()
                stats["children_destroyed"] += 1

        def teardown():
            for lib in cluster.all_libs():
                yield from lib.close()

        env.run(until=env.process(teardown(), name="tor.teardown"))
        env.run()
        checker.check_pin_accounting()
        checker.check_frame_leaks()
        checker.check_notifier_registrations()

    ok = sum(1 for _, r in completed if r.status == "ok")
    degraded = sum(1 for _, r in completed if r.done and r.status != "ok")
    fallbacks = denied = waits = timeouts = stale_hits = 0
    for node in cluster.nodes:
        counts = node.driver.counters.as_dict()
        fallbacks += counts.get("pin_fallback_send", 0)
        fallbacks += counts.get("pin_fallback_recv", 0)
        denied += counts.get("pin_budget_denied", 0)
        stale_hits += counts.get("region_cache_stale_hit", 0)
        waits += node.kernel.pin.budget_waits
        timeouts += node.kernel.pin.budget_timeouts.value
    transfers = max(1, len(completed) // 2)
    stats.update({"pin_fallbacks": fallbacks, "pin_budget_denied": denied,
                  "budget_waits": waits, "budget_timeouts": timeouts,
                  "cache_stale_hits": stale_hits})

    digest = hashlib.sha256()
    digest.update(f"now={env.now} seed={seed} mode={mode.value} "
                  f"queue={queue_on} validate={config.region_cache_validate}"
                  f"\n".encode())
    digest.update((" ".join(episode_log) + "\n").encode())
    for label, req in sorted(completed, key=lambda c: c[0]):
        digest.update(f"{label} status={req.status}\n".encode())
    for node in cluster.nodes:
        counts = sorted(node.driver.counters.as_dict().items())
        pin = node.kernel.pin
        digest.update(
            f"{node.host.name} {counts} pins={pin.pins} "
            f"unpins={pin.unpins} pages={pin.pages_pinned} "
            f"failures={pin.pin_failures.value} waits={pin.budget_waits} "
            f"timeouts={pin.budget_timeouts.value} "
            f"pinned_now={node.host.memory.pinned_frames}\n".encode())
        for proc in node.procs:
            a = proc.aspace
            digest.update(
                f"{a.name} faults={a.faults} cow={a.cow_breaks} "
                f"swapins={a.swapins} forks={a.forks} "
                f"mallocs={proc.heap.mallocs} frees={proc.heap.frees}"
                f"\n".encode())
    digest.update((json.dumps(stats, sort_keys=True) + "\n").encode())

    return TortureResult(
        seed=seed, steps=steps, mode=mode.value, queue=queue_on,
        validate=config.region_cache_validate, finished=finished,
        elapsed_ns=env.now, transfers_ok=ok, transfers_degraded=degraded,
        episode_counts=episode_counts, stats=stats,
        recovery_ns={"p50": recovery_hist.percentile(50.0),
                     "p99": recovery_hist.percentile(99.0),
                     "n": recovery_hist.count},
        fallback_rate=round(fallbacks / transfers, 4),
        injections=applied.injection_counts(),
        violations=list(checker.violations),
        digest=digest.hexdigest(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.torture",
        description="Adversarial pin-path torture runs with a per-episode "
                    "recovery oracle.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="single seed to run (default 0)")
    parser.add_argument("--seeds", type=int, metavar="N",
                        help="run seeds 0..N-1")
    parser.add_argument("--steps", type=int, default=60,
                        help="episodes per seed (default 60)")
    parser.add_argument("--mode", choices=[m.value for m in PinningMode],
                        help="pin mode (default: rotates by seed)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the seed fan-out")
    parser.add_argument("--until-failure", action="store_true",
                        help="run seeds upward from --seed until one "
                             "violates, then shrink it and print a repro "
                             "command")
    parser.add_argument("--max-seeds", type=int, default=None,
                        help="with --until-failure: give up after N seeds")
    args = parser.parse_args(argv)
    mode = PinningMode(args.mode) if args.mode else None

    if args.until_failure:
        from repro.faults.shrink import hunt_until_failure

        def runner(seed: int, steps: int):
            return run_torture(seed, steps, mode=mode)

        mode_flag = f" --mode {args.mode}" if args.mode else ""
        found = hunt_until_failure(
            runner, args.seed, args.steps, max_seeds=args.max_seeds,
            repro_command=lambda s, st: (
                f"python -m repro.faults.torture --seed {s} --steps {st}"
                + mode_flag),
        )
        return 1 if found is not None else 0

    seeds = range(args.seeds) if args.seeds is not None else [args.seed]
    from repro.experiments.parallel import parallel_map

    results = parallel_map(
        [(run_torture, {"seed": seed, "steps": args.steps, "mode": mode})
         for seed in seeds],
        jobs=args.jobs,
    )
    failures = 0
    for result in results:
        if args.json:
            print(json.dumps(result.as_dict()))
        else:
            verdict = "CLEAN" if result.clean else "VIOLATIONS"
            print(f"seed={result.seed:4d} mode={result.mode:13s} "
                  f"queue={'on ' if result.queue else 'off'} "
                  f"ok={result.transfers_ok:3d} "
                  f"degraded={result.transfers_degraded:3d} "
                  f"fallback={result.fallback_rate:6.3f} "
                  f"recovery_p99={result.recovery_ns.get('p99', 0):>9.0f}ns "
                  f"{verdict}")
            for v in result.violations:
                print(f"    {v}")
        if not result.clean:
            failures += 1
    if failures:
        print(f"{failures}/{len(results)} seed(s) violated invariants",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
