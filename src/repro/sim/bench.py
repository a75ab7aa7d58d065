"""Engine and stack microbenchmarks — ``python -m repro.sim.bench``.

Measures dispatch throughput (events/sec) and wall time on eight
deterministic scenarios that mirror how the protocol layers drive the
engine:

* ``timer_churn`` — the retransmit idiom: an ack racing a long timer that
  almost always loses (PR 2's backoff timers create these in volume).
  Exercises lazy cancellation and the Timeout free-list.
* ``timeout_ladder`` — many concurrent processes sleeping in a loop; the
  pure queue + process-resume path.
* ``event_pingpong`` — two processes alternating via bare events; the
  succeed/dispatch fast path with a single callback per event.
* ``condition_fanout`` — ``any_of`` over several timers each round; the
  condition attach/detach path, with losing timers cancelled into the
  free-list (dead entries still pop, so event counts are unchanged).
* ``wheel_storm`` — timers spread across every timer-wheel level plus the
  overflow heap, with zero-delay timeouts mixed in; the scenario that
  exercises cascades/promotions hardest.
* ``poll_spin`` — the slice idiom of ``OmxLib.wait`` written out on a bare
  core (claim the core, race a doorbell against a 5 us timer, release),
  which a higher-priority bottom half claims at fixed instants; the
  uncontended core-claim and single-expiry cascade paths.  It does not
  call ``OmxLib``, so it leaves out the library's own spin code.
* ``datapath_pull`` — a full NIC→fabric→softirq receive storm (two senders
  bursting 4 KiB frames at one receiver whose bottom half is the
  bottleneck); the workload the data-path event coalescing targets.
* ``vm_churn`` — processes looping mmap/write/declare/pin/probe/munmap/
  COW/swap on the VM layer; the workload the VM indexes target.

Every scenario is deterministic, so one timed round gives an exact event
count and an exact simulated end state; wall time is the only noise, which
``--repeat`` (best-of) tames.  The report covers this tree alone: to compare
revisions, A/B them end to end with ``python3 -m benchmarks.e2e compare``.

Usage::

    python -m repro.sim.bench                     # full scale, 3 repeats
    python -m repro.sim.bench --quick             # CI smoke
    python -m repro.sim.bench --json BENCH_engine.json
    python -m repro.sim.bench --quick --sim-json state.json datapath_pull
    python -m repro.sim.bench --quick --shards 4 --json pdes.json openmx_shard

``--sim-json PATH SCENARIO`` writes one scenario's simulated end state, the
exact reference the CI drift gates diff against
(``benchmarks/{datapath,vm,openmx_shard}_sim_quick.json``).

``openmx_shard`` (:mod:`repro.sim.openmx_shard`) is the conservative-PDES
scenario (:mod:`repro.sim.pdes`) on the **full Open-MX stack**: 16 hosts,
each with a complete kernel/MMU-notifier/pin-service/driver/NIC stack,
exchanging mixed eager/rendezvous traffic under pin pressure, sharded
across worker processes.  Named as a scenario, it runs serial against
``--shards`` forked workers plus a block/stripe/affinity partition
comparison, every run gated on the serial end state; alone it writes the
``BENCH_pdes.json`` layout to ``--json``, and with other scenarios it rides
under the engine report's ``openmx_shard`` key.
``--sim-json PATH openmx_shard`` writes the end state at ``--shards``
shards for the cross-shard-count CI diff.  ``--shards auto`` caps the
default shard count at the host's usable cores (the wall speedup is
meaningless when shards > cores; reports flag that as ``core_starved``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, NamedTuple

from repro.sim.engine import Environment

__all__ = ["SCENARIOS", "Scenario", "format_report", "gate_end_states",
           "run_benchmarks", "run_scenario", "sim_state"]


# -- scenarios ----------------------------------------------------------------
#
# Every build takes (env, rounds), sets the scenario up on ``env`` and returns
# a probe: a no-argument callable that reads the simulated end state once
# ``env.run()`` has drained.  Wall time and the event count are measured by
# the harness; the probe is what ``--sim-json`` writes for the drift gates.

Probe = Callable[[], dict[str, Any]]


def _clock_probe(env: Environment) -> Probe:
    """An engine scenario's end state: the final clock and the event count."""
    return lambda: {"now_ns": env.now, "events": env.events_processed}


def _timer_churn(env: Environment, rounds: int, procs: int = 16) -> Probe:
    """The retransmit idiom: ack at +10 ns races a timer at +1000 ns."""

    def worker():
        for _ in range(rounds):
            ack = env.event()
            env.timeout(10).callbacks.append(
                lambda _ev, ack=ack: ack.succeed()
            )
            timer = env.timeout(1000)
            yield env.race(ack, timer)
            timer.cancel()

    for _ in range(procs):
        env.process(worker())
    return _clock_probe(env)


def _timeout_ladder(env: Environment, rounds: int, procs: int = 64) -> Probe:
    """Many processes sleeping in lockstep: heap + resume throughput."""

    def worker():
        for _ in range(rounds):
            yield env.timeout(7)

    for _ in range(procs):
        env.process(worker())
    return _clock_probe(env)


def _event_pingpong(env: Environment, rounds: int) -> Probe:
    """Two processes alternating on bare events (single-callback dispatch)."""
    ping = [env.event()]
    pong = [env.event()]

    def a():
        for i in range(rounds):
            ping[0].succeed(i)
            yield pong[0]
            pong[0] = env.event()

    def b():
        for _ in range(rounds):
            yield ping[0]
            ping[0] = env.event()
            pong[0].succeed()

    env.process(a())
    env.process(b())
    return _clock_probe(env)


def _condition_fanout(env: Environment, rounds: int, width: int = 8) -> Probe:
    """any_of over ``width`` timers; one wins, the losers are cancelled.

    Cancelling the detached losers routes them through the free-list
    without changing simulated behavior — dead entries still pop at their
    original expiry, so the event count is the same as without the cancel.
    """

    def worker():
        for _ in range(rounds):
            timers = [env.timeout(j + 1) for j in range(width)]
            yield env.any_of(timers)
            for t in timers:
                t.cancel()

    env.process(worker())
    return _clock_probe(env)


def _wheel_storm(env: Environment, rounds: int, procs: int = 8) -> Probe:
    """Timers on every wheel level at once — the wheel-stress workload.

    Each round every process races a fast ack against four timers whose
    expiries land in different wheel levels: a short poll (level 0), a
    microsecond retransmit (level 1), a millisecond watchdog (level 2) and
    a far-future blackout timer (overflow heap).  The ack wins, the losers
    are cancelled and pop dead at their original expiries — so the tail of
    the run is dominated by the wheel advancing across sparse, multi-level
    expiries, exercising cascades, overflow promotions and bitmap
    tick-finding.  Every seventh round adds a zero-delay timeout (the
    ready-FIFO path).
    """

    def worker(k: int):
        for i in range(rounds):
            ack = env.event()
            env.timeout(3 + k).callbacks.append(
                lambda _ev, ack=ack: ack.succeed()
            )
            racers = (
                env.timeout(40 + 7 * k),                   # level 0
                env.timeout(2_000 + 130 * k),              # level 1
                env.timeout(300_000 + 1_000 * k),          # level 2
                env.timeout(50_000_000 + 100_000 * k),     # overflow heap
            )
            yield env.any_of([ack, *racers])
            for t in racers:
                t.cancel()
            if i % 7 == 0:
                yield env.timeout(0)

    for k in range(procs):
        env.process(worker(k))
    return _clock_probe(env)


# Poll-spin scenario constants: the slice idiom of OmxLib.wait on one
# capacity-1 core, with a bottom half arriving at fixed instants.  The
# slice is OpenMXConfig's default poll_slice_ns, read in _poll_spin.
_PS_BH_PERIOD_NS = 37_000   # one bottom-half arrival every 37 us
_PS_BH_COST_NS = 1_800      # how long the bottom half holds the core


def _poll_spin(env: Environment, rounds: int) -> Probe:
    """The completion spin: ``rounds`` poll slices racing a doorbell.

    Each slice claims the core at ``PRIO_USER``, holds it until the
    doorbell rings or the 5 us slice timer fires, and gives it back; most
    claims find the core free.  A ``PRIO_BH`` claimant arrives every 37 us,
    finds a slice holding the core and queues.  It is granted at the slice
    boundary, ahead of the spinner's next claim, holds the core 1.8 us and
    rings the doorbell, which ends the spinner's next slice at once.  The
    slice timers are lone level-1 wheel entries, so the wheel's
    single-expiry cascade is exercised as hard as the core claims.
    """
    from repro.hw.cpu import PRIO_BH, PRIO_USER
    from repro.openmx.config import OpenMXConfig
    from repro.sim.resources import Resource

    slice_ns = OpenMXConfig().poll_slice_ns
    core = Resource(env, capacity=1, name="core")
    bell = [env.event()]

    def spinner():
        for _ in range(rounds):
            with core.request(PRIO_USER) as req:
                yield req
                timer = env.timeout(slice_ns)
                yield env.race(bell[0], timer)
                timer.cancel()
            if bell[0].triggered:
                bell[0] = env.event()

    def bottom_half():
        at = 0
        for _ in range(rounds * slice_ns // _PS_BH_PERIOD_NS):
            at += _PS_BH_PERIOD_NS
            yield env.timeout(at - env.now)
            with core.request(PRIO_BH) as req:
                yield req
                yield env.timeout(_PS_BH_COST_NS)
            if not bell[0].triggered:
                bell[0].succeed()

    env.process(spinner())
    env.process(bottom_half())

    def probe():
        return {"now_ns": env.now, "events": env.events_processed,
                "wheel_ticks": env.wheel_ticks,
                "wheel_cascades": env.wheel_cascades,
                "total_grants": core.total_grants,
                "busy_time": core.busy_time}

    return probe


# Data-path scenario constants: 4 KiB frames arrive from two senders every
# ~1.65 us while the bottom half needs ~3.8 us per frame (per-packet cost
# plus a 4 KiB memcpy at 1.25 GB/s), so the RX ring backs up, the NAPI
# budget trips, and ksoftirqd rounds run — the regime the data-path
# event-coalescing change targets.
_DP_FRAME_BYTES = 4096
_DP_BURST = 64          # frames per sender per message
_DP_GAP_NS = 600_000    # inter-message settle gap (ring fully drains)


def _datapath_pull(env: Environment, rounds: int) -> Probe:
    """Two senders burst 4 KiB frames at one receiver's bottom half.

    Returns a probe reading the complete simulated end state, with the
    constructed parts hung off it (``probe.fabric`` and friends) for tests.
    """
    from repro.cluster.network import Fabric
    from repro.hw.cpu import CpuCore
    from repro.hw.nic import EthernetFrame, Nic
    from repro.hw.specs import MYRI_10G, XEON_E5460
    from repro.kernel.interrupts import SoftirqEngine

    fabric = Fabric(env, latency_ns=1_000)
    rx = Nic(env, MYRI_10G, "rxhost")
    senders = [Nic(env, MYRI_10G, f"txhost{i}") for i in range(2)]
    for nic in (rx, *senders):
        fabric.attach(nic)
    core = CpuCore(env, XEON_E5460, "rxhost", 0)
    handled = {"frames": 0, "bytes": 0}

    def handler(frame, ctx):
        handled["frames"] += 1
        handled["bytes"] += frame.payload_bytes
        yield from ctx.memcpy(frame.payload_bytes)

    softirq = SoftirqEngine(env, core, rx, handler)
    # The handler charges before any externally visible action, so every
    # frame is fusable.
    softirq.fuse_hint = lambda frame: True
    rx.set_rx_callback(softirq.raise_irq)

    def sender(nic):
        for _ in range(rounds):
            for _ in range(_DP_BURST):
                nic.send(EthernetFrame(
                    src=nic.address, dst=rx.address, ethertype=0x86DF,
                    payload=None, payload_bytes=_DP_FRAME_BYTES))
            yield env.timeout(_DP_GAP_NS)

    for nic in senders:
        env.process(sender(nic), name=f"{nic.name}.app")

    def probe():
        return {
            "now_ns": env.now,
            "handled_frames": handled["frames"],
            "handled_bytes": handled["bytes"],
            "tx_frames": sum(n.tx_frames.value for n in senders),
            "tx_bytes": sum(n.tx_bytes.value for n in senders),
            "rx_frames": rx.rx_frames.value,
            "rx_bytes": rx.rx_bytes.value,
            "rx_ring_drops": rx.rx_ring_drops.value,
            "frames_carried": fabric.frames_carried.value,
            "frames_dropped": fabric.frames_dropped,
            "bh_runs": softirq.bh_runs.value,
            "frames_processed": softirq.frames_processed.value,
            "ksoftirqd_rounds": softirq.ksoftirqd_rounds.value,
        }

    probe.fabric = fabric
    probe.softirq = softirq
    probe.rx_nic = rx
    probe.senders = senders
    return probe


# VM-churn scenario constants: independent processes hammer the VM layer —
# allocate + write (page faults), declare + pin regions, probe the pinned
# watermark and residency, then churn with munmap/COW/swap invalidations.
# Every per-process structure (address space, memory, core, RNG) is private,
# so process interleaving cannot change any per-process result.
_VM_PROCS = 6
_VM_BUFS_PER_ROUND = 3


def _vm_churn(env: Environment, rounds: int) -> Probe:
    """Many processes churning mmap/pin/probe/invalidate on the VM layer.

    Returns a probe reading the complete simulated end state: final clock
    plus, per process, every VM/pin/notifier counter and a digest of all
    data read.
    """
    import hashlib
    import random

    from repro.hw.cpu import CpuCore
    from repro.hw.memory import PAGE_SIZE, PhysicalMemory
    from repro.hw.specs import XEON_E5460
    from repro.kernel.address_space import AddressSpace, page_count
    from repro.kernel.mmu_notifier import CallbackNotifier, IntervalIndex
    from repro.kernel.pinning import PinService
    from repro.obs.metrics import MetricRegistry
    from repro.openmx.regions import Segment, UserRegion

    registry = MetricRegistry()  # private: keep the ambient registry clean
    parts: list[dict | None] = [None] * _VM_PROCS

    def worker(pid: int):
        rng = random.Random(1_000_003 * (pid + 1))
        memory = PhysicalMemory(64 << 20)
        aspace = AddressSpace(memory, name=f"vm{pid}")
        core = CpuCore(env, XEON_E5460, f"vmhost{pid}", 0)
        pin = PinService(metrics=registry, host=f"vmhost{pid}")
        index = IntervalIndex()
        regions: dict[int, object] = {}
        next_rid = 1
        buffers: list[tuple[int, int]] = []  # (addr, nbytes)
        fixed_maps: list[tuple[int, int]] = []
        digest = hashlib.sha256()
        stats = {"notifier_unpins": 0, "covers_hits": 0, "resident": 0,
                 "reuse_hits": 0, "cow_pages": 0, "swapped_pages": 0,
                 "mapped_probes": 0}

        def on_invalidate(start: int, end: int) -> None:
            # The driver-style dispatch: consult the region index, unpin
            # every still-watermarked region the invalidation hits.
            for rid in index.overlapping(start, end):
                region = regions[rid]
                if region.watermark == 0:
                    continue
                pin.unpin_now(aspace, region.take_pinned_frames())
                stats["notifier_unpins"] += 1

        aspace.notifiers.register(CallbackNotifier(on_invalidate))
        fixed_base = aspace.MMAP_BASE - (1 << 36) + pid * (1 << 32)

        for rnd in range(rounds):
            # -- allocate: fresh buffers, fully written (faults every page)
            for b in range(_VM_BUFS_PER_ROUND):
                npages = rng.randrange(2, 12)
                nbytes = npages * PAGE_SIZE - rng.randrange(0, PAGE_SIZE // 2)
                addr = aspace.mmap(nbytes)
                pat = bytes((pid * 37 + rnd * 11 + b * 5 + j) % 251
                            for j in range(256))
                payload = (pat * (nbytes // len(pat) + 1))[:nbytes]
                aspace.write(addr, payload)
                buffers.append((addr, nbytes))
            yield env.timeout(rng.randrange(200, 1500))

            # -- declare two regions: one contiguous, one vectorial
            addr, nbytes = buffers[rng.randrange(len(buffers))]
            new_regions = [(Segment(addr, nbytes),)]
            vec = []
            for _ in range(rng.randrange(3, 7)):
                a2, n2 = buffers[rng.randrange(len(buffers))]
                off = rng.randrange(0, max(1, n2 // 2))
                ln = rng.randrange(1, max(2, n2 - off))
                vec.append(Segment(a2 + off, ln))
            new_regions.append(tuple(vec))
            pin_rids = []
            for segs in new_regions:
                region = UserRegion(next_rid, aspace, segs)
                regions[next_rid] = region
                index.add(next_rid,
                          [(sg.va, sg.va + sg.length) for sg in segs])
                pin_rids.append(next_rid)
                next_rid += 1

            # -- pin the new regions fully, one segment at a time
            for rid in pin_rids:
                region = regions[rid]
                for sg in region.segments:
                    frames = yield from pin.pin_user_pages(
                        core, aspace, sg.va, page_count(sg.va, sg.length))
                    region.attach_frames(region.watermark, frames)

            # -- probe storm: watermark covers(), residency, mappedness
            for rid in sorted(regions):
                region = regions[rid]
                for _ in range(8):
                    off = rng.randrange(0, region.total_length)
                    ln = rng.randrange(1, region.total_length - off + 1)
                    stats["covers_hits"] += bool(region.covers(off, ln))
                if region.fully_pinned:
                    digest.update(
                        region.read(0, min(region.total_length, 4096)))
            for a2, n2 in buffers:
                stats["mapped_probes"] += aspace.is_mapped_range(a2, n2)
                stats["resident"] += aspace.resident_pages(a2, n2)
            heap_span = (buffers[-1][0] + buffers[-1][1]) - aspace.MMAP_BASE
            stats["resident"] += aspace.resident_pages(aspace.MMAP_BASE,
                                                       heap_span)
            digest.update(aspace.read(addr, min(nbytes, 2048)))
            yield env.timeout(rng.randrange(200, 1500))

            # -- churn: destroy, munmap (+LIFO re-mmap), COW/swap pressure
            if regions and rng.random() < 0.7:
                rid = min(regions)
                region = regions.pop(rid)
                index.remove(rid)
                if region.watermark:
                    yield from pin.unpin_user_pages(
                        core, aspace, region.take_pinned_frames())
            if len(buffers) > 4:
                i = rng.randrange(len(buffers))
                a2, n2 = buffers.pop(i)
                aspace.munmap(a2, n2)  # notifiers fire through the index
                if rng.random() < 0.5:
                    a3 = aspace.mmap(n2)
                    buffers.append((a3, n2))
                    stats["reuse_hits"] += a3 == a2
            a2, n2 = buffers[rng.randrange(len(buffers))]
            if rnd % 2:
                stats["cow_pages"] += aspace.cow_duplicate(a2, n2)
            else:
                stats["swapped_pages"] += aspace.swap_out(a2, n2)
            if rnd % 5 == pid % 5:
                fa = fixed_base + rnd * 0x40_0000
                aspace.mmap_fixed(fa, 2 * PAGE_SIZE)
                aspace.write(fa, b"fixed")
                fixed_maps.append((fa, 2 * PAGE_SIZE))
                if len(fixed_maps) > 2:
                    fa2, fl2 = fixed_maps.pop(0)
                    aspace.munmap(fa2, fl2)
            yield env.timeout(rng.randrange(500, 3000))

        parts[pid] = {
            **stats,
            "faults": aspace.faults,
            "cow_breaks": aspace.cow_breaks,
            "swapins": aspace.swapins,
            "invalidations": aspace.notifiers.invalidations,
            "orphans": aspace.orphan_count,
            "pins": pin.pins,
            "unpins": pin.unpins,
            "pages_pinned": pin.pages_pinned,
            "pin_failures": pin.pin_failures.value,
            "free_frames": memory.free_frames,
            "pinned_frames": memory.pinned_frames,
            "regions_live": len(regions),
            "index_len": len(index),
            "digest": digest.hexdigest(),
        }

    for pid in range(_VM_PROCS):
        env.process(worker(pid), name=f"vmchurn.{pid}")

    def probe():
        return {"now_ns": env.now, "procs": list(parts)}

    return probe


class Scenario(NamedTuple):
    build: Callable[[Environment, int], Probe]
    full: int     # rounds at full scale
    quick: int    # rounds at --quick scale


SCENARIOS: dict[str, Scenario] = {
    "timer_churn": Scenario(_timer_churn, 6_000, 600),
    "timeout_ladder": Scenario(_timeout_ladder, 3_000, 300),
    "event_pingpong": Scenario(_event_pingpong, 120_000, 12_000),
    "condition_fanout": Scenario(_condition_fanout, 30_000, 3_000),
    "wheel_storm": Scenario(_wheel_storm, 1_500, 150),
    "poll_spin": Scenario(_poll_spin, 20_000, 2_000),
    "datapath_pull": Scenario(_datapath_pull, 150, 15),
    "vm_churn": Scenario(_vm_churn, 150, 8),
}


# -- harness ------------------------------------------------------------------


# Engine counters sampled per scenario.  They are read off the
# Environment *instance* that ran the timed round — each round builds a
# fresh env, so the counts are per-scenario by construction (an earlier
# revision threaded two of them positionally through the harness and
# reported zeros for every scenario that wasn't timer_churn).
_ENGINE_COUNTERS = ("timeouts_recycled", "timeouts_reused",
                    "wheel_ticks", "wheel_cascades", "wheel_promotions")


def _rounds(name: str, quick: bool) -> int:
    return SCENARIOS[name].quick if quick else SCENARIOS[name].full


def _time_once(name: str, rounds: int
               ) -> tuple[float, int, dict[str, int], dict[str, Any]]:
    """One timed round: (wall_s, events, engine counters, end state)."""
    env = Environment()
    probe = SCENARIOS[name].build(env, rounds)
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    counters = {c: getattr(env, c) for c in _ENGINE_COUNTERS}
    return wall, env.events_processed, counters, probe()


def _row(events: int, wall: float) -> dict[str, Any]:
    return {"events": events, "wall_s": round(wall, 6),
            "events_per_sec": round(events / wall) if wall else 0}


def run_scenario(name: str, quick: bool = False,
                 repeat: int = 3) -> dict[str, Any]:
    """Run one scenario ``repeat`` times; report the best wall time."""
    rounds = _rounds(name, quick)
    runs = [_time_once(name, rounds) for _ in range(repeat)]
    wall, events, counters, _ = min(runs, key=lambda run: run[0])
    return {"rounds": rounds, **_row(events, wall), **counters}


def _report(quick: bool, repeat: int,
            rows: dict[str, dict[str, Any]]) -> dict[str, Any]:
    total = _row(sum(r["events"] for r in rows.values()),
                 sum(r["wall_s"] for r in rows.values()))
    return {"schema": "repro.bench.engine/v1", "quick": quick,
            "repeat": repeat, "scenarios": rows, "total": total}


def run_benchmarks(quick: bool = False, repeat: int = 3,
                   scenarios: list[str] | None = None) -> dict[str, Any]:
    return _report(quick, repeat, {
        name: run_scenario(name, quick=quick, repeat=repeat)
        for name in scenarios or SCENARIOS})


def sim_state(name: str, quick: bool = False, shards: int = 1
              ) -> dict[str, Any]:
    """One scenario's deterministic simulated end state, for ``--sim-json``.

    Every field is an exact simulation output (no wall-clock noise), so CI
    diffs it against a committed reference with zero tolerance — any change
    means a change that should have been invisible moved the simulation.
    ``openmx_shard`` runs at ``shards`` shards.
    """
    if name == "openmx_shard":
        from repro.sim.openmx_shard import openmx_sim_state

        return openmx_sim_state(quick=quick, shards=shards)
    rounds = _rounds(name, quick)
    return {"schema": f"repro.bench.{name.split('_')[0]}-sim/v1",
            "quick": quick, "rounds": rounds,
            "state": _time_once(name, rounds)[3]}


# -- end-state gate -----------------------------------------------------------


def _flatten(value: Any, prefix: str = "") -> dict[str, Any]:
    """Nested dicts/lists as dotted leaf keys: ``{"procs.0.faults": 3}``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    flat: dict[str, Any] = {}
    for key, item in items:
        flat.update(_flatten(item, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def gate_end_states(base: dict[str, Any], current: dict[str, Any]) -> None:
    """The end-state gate: two name -> end state maps must be equal.

    Exits 1, naming every differing key, when they are not.
    """
    flat_base, flat_cur = _flatten(base), _flatten(current)
    diffs = [f"{key}: base={flat_base.get(key)!r} "
             f"current={flat_cur.get(key)!r}"
             for key in sorted(flat_base.keys() | flat_cur.keys())
             if flat_base.get(key) != flat_cur.get(key)]
    if diffs:
        raise SystemExit("end states differ — not comparable, no speedup "
                         "reported:\n  " + "\n  ".join(diffs))


def format_openmx_ab_report(report: dict[str, Any]) -> str:
    strat = report["strategies"]
    lines = [
        f"openmx_shard A/B (full Open-MX stack, {report['nhosts']} hosts; "
        f"serial vs {report['shards']} forked shards, best of "
        f"{report['repeat']}, {report['host_cores']} host cores):",
        f"  serial  {report['events']:>10,} events "
        f"{report['serial_wall_s']:>9.4f} s",
        f"  sharded {report['events']:>10,} events "
        f"{report['sharded_wall_s']:>9.4f} s "
        f"({report['windows']} windows, "
        f"{report['cross_shard_frames']} cross-shard frames)",
    ]
    if report["shards"] == 1:
        # The coordinator runs the whole scenario itself: nothing runs in
        # parallel, so a speedup would only measure run-to-run noise.
        lines.append("  speedup: does not apply at one shard "
                     "(nothing runs in parallel)")
    else:
        lines.append(
            f"  wall speedup {report['speedup']:.2f}x; critical path "
            f"{report['critical_path_s']:.4f} s "
            f"({report['critical_path_speedup']:.2f}x attainable with "
            f">= {report['shards']} free cores)")
    if report.get("core_starved"):
        lines.append(
            f"  CORE-STARVED: {report['host_cores']} cores < "
            f"{report['shards']} shards — wall speedup is meaningless "
            "here; critical path is the honest number "
            "(try --shards auto)")
    windows = max(report["windows"], 1)
    lines.extend([
        "  busy/idle s by shard (CPU time in run_window / barrier idle): "
        + ", ".join(f"{s}={busy:.4f}/{idle:.4f}" for s, (busy, idle)
                    in enumerate(zip(report["busy_s_by_shard"],
                                     report["idle_s_by_shard"]))),
        f"  coordinator blocked on worker replies "
        f"{report['coordinator_wait_s']:.4f} s "
        f"({report['coordinator_wait_s'] / windows * 1e3:.3f} ms per window)",
        "  partition strategies (cross-shard frames, identical digests): "
        + ", ".join(f"{k}={v}" for k, v in strat.items()),
        f"  affinity cut: {report['affinity_cut_vs_block']:.1%} vs block, "
        f"{report['affinity_cut_vs_stripe']:.1%} vs stripe",
        f"  end-state digest {report['digest']}  "
        "[identical serial and all sharded runs]",
    ])
    return "\n".join(lines)


def format_report(report: dict[str, Any]) -> str:
    lines = [f"{'scenario':18s} {'events':>10s} {'wall s':>9s} "
             f"{'events/sec':>12s} {'recycled':>9s} {'ticks':>9s}"]
    for name, r in [*report["scenarios"].items(), ("TOTAL", report["total"])]:
        lines.append(f"{name:18s} {r['events']:>10,} {r['wall_s']:>9.4f} "
                     f"{r['events_per_sec']:>12,} "
                     f"{str(r.get('timeouts_recycled', '')):>9s} "
                     f"{str(r.get('wheel_ticks', '')):>9s}")
    return "\n".join(lines)


def _write_json(path: str, obj: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    from repro.sim.pdes import shards_arg

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.bench",
        description="Microbenchmark the engine and the simulated stack.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small rounds for CI smoke runs")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per scenario, best-of (default 3)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the machine-readable report here")
    parser.add_argument("--shards", type=shards_arg, default="4",
                        help="PDES shard count for openmx_shard; "
                             "'auto' caps the default at the host's usable "
                             "cores (default 4)")
    parser.add_argument("--sim-json", metavar="PATH",
                        help="write the one named scenario's simulated end "
                             "state (exact, for the CI drift gates)")
    names = [*SCENARIOS, "openmx_shard"]
    parser.add_argument("scenario", nargs="*",
                        help="subset of scenarios (default: all but "
                             "openmx_shard, which runs serial against "
                             "--shards shards): "
                             + ", ".join(names))
    args = parser.parse_args(argv)
    # Checked here, not with ``choices``: argparse would test an empty
    # ``nargs="*"`` list against the choices too.
    unknown = [s for s in args.scenario if s not in names]
    if unknown:
        parser.error(f"unknown scenario(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(names)}")
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")

    if args.sim_json:
        if len(args.scenario) != 1:
            parser.error("--sim-json takes exactly one scenario")
        name = args.scenario[0]
        _write_json(args.sim_json,
                    sim_state(name, quick=args.quick, shards=args.shards))
        print(f"({name} sim state saved to {args.sim_json})")
        return 0

    scenarios = [s for s in args.scenario if s != "openmx_shard"]
    sharded = len(scenarios) < len(args.scenario)
    # Alone, openmx_shard writes the committed BENCH_pdes.json layout; with
    # other scenarios its report rides under the engine report's key.
    report: dict[str, Any] = {"schema": "repro.bench.pdes/v2"}
    if scenarios or not sharded:
        report = run_benchmarks(quick=args.quick, repeat=args.repeat,
                                scenarios=scenarios or None)
        print(format_report(report))
    if sharded:
        from repro.sim.openmx_shard import run_openmx_ab

        report["openmx_shard"] = run_openmx_ab(
            quick=args.quick, shards=args.shards, repeat=args.repeat)
        print(format_openmx_ab_report(report["openmx_shard"]))
    if args.json:
        _write_json(args.json, report)
        print(f"(report saved to {args.json})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
