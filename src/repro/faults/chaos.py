"""Chaos harness: seeded fault storms against a live two-node cluster.

``run_chaos(seed, steps)`` builds a cluster, applies ``FaultPlan.sample(seed)``
(network loss/reordering/duplication, RX-ring pressure, transient pin
failures), runs a randomized message workload (eager and rendezvous sizes,
both directions, occasional concurrency) while a VM-pressure process swaps
out, COW-duplicates, migrates, and remaps the communication buffers —
driving mid-transfer MMU-notifier invalidations — and then verifies the
protocol invariants (liveness, payload integrity, pin accounting).

Everything is a pure function of the seed: the run also produces a SHA-256
digest of the full event trace, so two runs of the same seed must match
bit-for-bit — the determinism guarantee the simulation engine makes.

CLI::

    python -m repro.faults.chaos --seed 7 --steps 40
    python -m repro.faults.chaos --seeds 0 50 --steps 20 --json
    python -m repro.faults.chaos --seeds 0 50 --jobs 4   # fan seeds out

``--jobs N`` runs seeds in worker processes via
:func:`repro.experiments.parallel.parallel_map`; results print in seed
order either way, so serial and parallel output are byte-identical (each
seed is an independent simulation — the determinism tests pin this).

It also holds what :mod:`repro.faults.torture` shares: buffers, VM ops,
the pair transfer, the end-of-run audit, the result mixin and the CLI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import asdict, dataclass, field

from repro.cluster.builder import build_cluster
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricRegistry
from repro.openmx.config import OpenMXConfig, PinningMode
from repro.util.units import KIB, MILLISECOND

__all__ = ["ChaosResult", "run_chaos"]

# Message-size ladder: two eager classes, three rendezvous classes.
SIZES = (2_000, 16_000, 48 * KIB, 160_000, 512 * KIB)
POOL_BUFFERS = 3  # communication buffers per node, reused round-robin
PAIR_BUDGET_NS = 100 * MILLISECOND  # per-transfer give-up budget


class SoakResult:
    """``clean`` and ``as_dict`` for a soak's result dataclass, whose own
    fields (``violations`` among them) give the JSON keys in order."""

    @property
    def clean(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {**asdict(self),
                "violations": [str(v) for v in self.violations]}


@dataclass
class ChaosResult(SoakResult):
    seed: int
    steps: int
    mode: str
    finished: bool
    elapsed_ns: int
    transfers_ok: int
    transfers_degraded: int  # terminal but not "ok" (timeout/error)
    injections: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    digest: str = ""


def _pattern(nbytes: int, salt: int) -> bytes:
    """Cheap per-transfer byte pattern, distinct across salts."""
    block = bytes((i + salt) % 256 for i in range(256))
    return (block * (nbytes // 256 + 1))[:nbytes]


@dataclass
class _Buffer:
    va: int
    size: int
    busy: int = 0  # refcount: overlapping sends share one buffer


def vm_op(proc, buf: _Buffer, op: int) -> None:
    """VM pressure on ``buf``: 0 swap-out, 1 COW-duplicate, 2 migrate (all
    payload-safe: they keep contents and skip or copy pinned frames), 3
    free + same-size malloc, the classic address-reuse pattern that stale
    pinning caches corrupt on (idle buffers only)."""
    if op == 0:
        proc.aspace.swap_out(buf.va, buf.size)
    elif op == 1:
        proc.aspace.cow_duplicate(buf.va, buf.size)
    elif op == 2:
        proc.aspace.migrate(buf.va, buf.size)
    else:
        proc.free(buf.va)
        buf.va = proc.malloc(buf.size)


def close_and_audit(cluster, checker: InvariantChecker, completed: list,
                    prefix: str) -> None:
    """The end-of-run oracle on a drained cluster: every request terminal
    and every endpoint quiescent, then close every endpoint, drain, and
    audit pin accounting."""
    for label, req in completed:
        checker.check_request_terminal(req, label)
    for n, lib in enumerate(cluster.all_libs()):
        checker.check_endpoint_quiescent(lib, f"lib{n}")
    # Quiescent cross-checks before teardown: every pin reference must
    # be reachable from a live region, every notifier chain must mirror
    # the open endpoints.
    checker.check_frame_leaks()
    checker.check_notifier_registrations()
    env = cluster.env

    def teardown():
        for lib in cluster.all_libs():
            yield from lib.close()

    env.run(until=env.process(teardown(), name=f"{prefix}.teardown"))
    env.run()
    checker.check_pin_accounting()
    checker.check_frame_leaks()
    checker.check_notifier_registrations()


def pair_transfer(cluster, checker: InvariantChecker, completed: list,
                  prefix: str, label: str, src: tuple[int, int],
                  dst: tuple[int, int], sbuf: _Buffer, soff: int,
                  rbuf: _Buffer, nbytes: int, tag: int,
                  data: bytes | None = None, salt: int = 0):
    """Send ``nbytes`` from ``sbuf.va + soff`` on ``src`` (node, proc) to
    ``rbuf`` on ``dst`` as process ``<prefix>.t<tag>``.  ``data`` is the
    payload already in the send buffer; when None, ``_pattern(nbytes,
    salt)`` is written there first.  Both requests land in ``completed``."""
    sl, rl = cluster.lib(*src), cluster.lib(*dst)
    rp = cluster.nodes[dst[0]].procs[dst[1]]
    env = cluster.env
    sbuf.busy += 1
    rbuf.busy += 1
    if data is None:
        data = _pattern(nbytes, salt)
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
        both = env.all_of([env.process(sender(), name=f"{prefix}.s{tag}"),
                           env.process(receiver(), name=f"{prefix}.r{tag}")])
        budget = env.timeout(PAIR_BUDGET_NS)
        yield env.race(both, budget)
        if not both.triggered:
            # Pair-level recovery: MX keeps no connection state, so a
            # sender that gave up never tells the receiver.  Drain the
            # sender's event queue (an eager failure arrives after the
            # request already completed locally), then — if and only if
            # the send failed terminally — cancel the orphaned unmatched
            # recv.  Anything else still stuck here is a real liveness
            # bug and rides to the global deadline.
            yield from sl.progress()
            sreq, rreq = pair.get("send"), pair.get("recv")
            if (sreq is not None and sreq.done and sreq.status != "ok"
                    and rreq is not None):
                rl.cancel(rreq)
            yield both
        budget.cancel()  # recycle the budget timer if unspent
        sbuf.busy -= 1
        rbuf.busy -= 1

    return env.process(transfer(), name=f"{prefix}.t{tag}")


def run_chaos(seed: int, steps: int, mode: PinningMode | None = None,
              plan: FaultPlan | None = None) -> ChaosResult:
    """One seeded chaos run; returns the result without raising."""
    rng = random.Random(seed * 2654435761 + 1)
    if mode is None:
        mode = list(PinningMode)[seed % len(PinningMode)]
    config = OpenMXConfig(
        pinning_mode=mode,
        resend_timeout_ns=2 * MILLISECOND,
        max_resend_rounds=4,
    )
    registry = MetricRegistry()
    cluster = build_cluster(config=config, trace=True, trace_capacity=None,
                            metrics=registry)
    if plan is None:
        plan = FaultPlan.sample(seed)
    applied = plan.apply(cluster)
    checker = InvariantChecker(cluster)
    env = cluster.env

    pools = [[_Buffer(node.procs[0].malloc(max(SIZES)), max(SIZES))
              for _ in range(POOL_BUFFERS)] for node in cluster.nodes]

    completed: list[tuple[str, object]] = []  # (label, request)
    state = {"done": False, "step": 0}

    def workload():
        for step in range(steps):
            state["step"] = step
            src = rng.randrange(2)
            batch = [(src, 1 - src)]
            if rng.random() < 0.3:
                batch.append((1 - src, src))  # concurrent opposite direction
            procs = []
            for idx, (a, b) in enumerate(batch):
                nbytes = rng.choice(SIZES)
                tag = step * 4 + idx + 1
                slot = (step + idx) % POOL_BUFFERS
                procs.append(pair_transfer(
                    cluster, checker, completed, "chaos",
                    f"step{step}.{idx} {a}->{b} {nbytes}B tag{tag}",
                    (a, 0), (b, 0), pools[a][slot], 0, pools[b][slot],
                    nbytes, tag, salt=step * 31 + seed))
            yield env.all_of(procs)
        state["done"] = True

    def vm_pressure():
        if plan.vm_pressure_period_ns <= 0:
            return
        vp_rng = random.Random(seed * 7919 + 13)
        while not state["done"]:
            yield env.timeout(plan.vm_pressure_period_ns)
            if state["done"]:
                return
            node = vp_rng.randrange(2)
            buf = pools[node][vp_rng.randrange(POOL_BUFFERS)]
            # Mid-transfer: swap-out is always legal — it fires the MMU
            # notifiers (cancelling/deferring pins) but skips pinned
            # frames, so in-flight data survives.
            vm_op(cluster.nodes[node].procs[0], buf,
                  0 if buf.busy else vp_rng.randrange(4))

    done_ev = env.process(workload(), name="chaos.workload")
    env.process(vm_pressure(), name="chaos.vm")
    deadline = steps * 2 * PAIR_BUDGET_NS + 500 * MILLISECOND
    env.run(until=env.race(done_ev, env.timeout(deadline)))
    checker.check_workload_finished(
        state["done"],
        f"workload stuck at step {state['step']}/{steps} after "
        f"{env.now} ns (deadline {deadline} ns)",
    )

    if state["done"]:
        # Drain remaining timers (bounded by design), then tear down and
        # audit the pin accounting.
        env.run()
        close_and_audit(cluster, checker, completed, "chaos")

    ok = sum(1 for _, r in completed if r.status == "ok")
    degraded = sum(1 for _, r in completed
                   if r.done and r.status != "ok")

    digest = hashlib.sha256()
    digest.update(f"now={env.now} seed={seed} mode={mode.value}\n".encode())
    for label, req in sorted(completed, key=lambda c: c[0]):
        digest.update(f"{label} status={req.status}\n".encode())
    for node in cluster.nodes:
        counts = sorted(node.driver.counters.as_dict().items())
        digest.update(f"{node.host.name} {counts}\n".encode())
    for mark in cluster.spans.marks():
        digest.update(
            f"{mark.start_ns}|{mark.source}|{mark.name}|"
            f"{sorted(mark.attrs.items())}\n".encode()
        )

    return ChaosResult(
        seed=seed, steps=steps, mode=mode.value, finished=state["done"],
        elapsed_ns=env.now, transfers_ok=ok, transfers_degraded=degraded,
        injections=applied.injection_counts(),
        violations=list(checker.violations),
        digest=digest.hexdigest(),
    )


def soak_parser(prog: str, description: str,
                steps: int) -> argparse.ArgumentParser:
    """The CLI a seeded soak shares; ``steps`` is its ``--steps`` default."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--seed", type=int, default=0,
                        help="single seed to run (default 0)")
    parser.add_argument("--seeds", type=int, nargs="+", metavar="N",
                        help="run seeds 0..N-1; with two ints LO HI, "
                             "every seed in [LO, HI)")
    parser.add_argument("--steps", type=int, default=steps,
                        help=f"steps per seed (default {steps})")
    parser.add_argument("--mode", choices=[m.value for m in PinningMode],
                        help="pin mode (default: rotates by seed)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the seed fan-out "
                             "(default 1: in-process)")
    parser.add_argument("--until-failure", action="store_true",
                        help="run seeds upward from --seed until one "
                             "violates, then shrink it and print a repro "
                             "command")
    parser.add_argument("--max-seeds", type=int, default=None,
                        help="with --until-failure: give up after N seeds")
    return parser


def run_soak(parser: argparse.ArgumentParser, args: argparse.Namespace,
             run, summary) -> int:
    """Drive ``run(seed, steps, mode=...)`` from ``soak_parser`` args:
    hunt with ``--until-failure``, else fan the seeds out and print one
    JSON object or one ``summary(result)`` line per seed; exit 1 if any
    seed violated an invariant.  An empty seed range or a ``--steps``,
    ``--max-seeds`` or ``--jobs`` below 1 is a usage error (exit 2)."""
    if args.seeds and (len(args.seeds) > 2 or not range(*args.seeds)):
        parser.error(f"--seeds {' '.join(map(str, args.seeds))}: want N "
                     f"or LO HI naming at least one seed")
    if (args.steps < 1 or args.jobs < 1
            or (args.max_seeds is not None and args.max_seeds < 1)):
        parser.error("--steps, --jobs and --max-seeds must be at least 1")
    mode = PinningMode(args.mode) if args.mode else None
    if args.until_failure:
        from repro.faults.shrink import hunt_until_failure

        mode_flag = f" --mode {args.mode}" if args.mode else ""
        found = hunt_until_failure(
            lambda seed, steps: run(seed, steps, mode=mode),
            args.seed, args.steps, max_seeds=args.max_seeds,
            repro_command=lambda s, st: (
                f"{parser.prog} --seed {s} --steps {st}{mode_flag}"),
        )
        return 1 if found is not None else 0

    from repro.experiments.parallel import parallel_map

    seeds = range(*args.seeds) if args.seeds else [args.seed]
    results = parallel_map(
        [(run, {"seed": seed, "steps": args.steps, "mode": mode})
         for seed in seeds], jobs=args.jobs)
    for result in results:
        if args.json:
            print(json.dumps(result.as_dict()))
        else:
            verdict = "CLEAN" if result.clean else "VIOLATIONS"
            print(f"seed={result.seed:4d} mode={result.mode:13s} "
                  f"{summary(result)} {verdict}")
            for v in result.violations:
                print(f"    {v}")
    failures = sum(not result.clean for result in results)
    if failures:
        print(f"{failures}/{len(results)} seed(s) violated invariants",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = soak_parser(
        "python -m repro.faults.chaos",
        "Seeded chaos runs with protocol invariant checking.", steps=20)
    return run_soak(parser, parser.parse_args(argv), run_chaos, lambda r: (
        f"ok={r.transfers_ok:3d} degraded={r.transfers_degraded:2d} "
        f"injected={sum(r.injections.values()):5d}"))


if __name__ == "__main__":
    sys.exit(main())
