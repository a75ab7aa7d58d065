"""The Ethernet fabric connecting NICs.

A :class:`Fabric` is a full-duplex switch: every attached NIC can reach every
other by address.  Each direction of each port pair has an independent
propagation+switching latency, plus a chain of pluggable *fault injectors*
(loss, duplication, reordering — see :mod:`repro.faults.models`) for
robustness tests: the MXoE protocol must survive drops — they are its
overlap-miss recovery mechanism.

A fault injector is any object with ``on_frame(frame, now) -> FrameVerdict |
None``; ``None`` means "no opinion, deliver normally".  Injectors are
consulted in order; the first one that drops wins, while duplication and
extra delay accumulate across the chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.nic import EthernetFrame, Nic
from repro.obs.metrics import Cell, MetricRegistry, resolve_registry
from repro.sim import Environment, SimulationError

__all__ = ["EtherCrossing", "Fabric", "FrameVerdict", "ShardEtherFabric"]


@dataclass
class FrameVerdict:
    """What a fault injector wants done with one frame."""

    drop: bool = False
    drop_reason: str = "fault"
    duplicate: bool = False
    extra_delay_ns: int = 0


class _Port:
    """Link-side endpoint bound to one NIC."""

    def __init__(self, fabric: "Fabric", nic: Nic):
        self.fabric = fabric
        self.nic = nic

    def carry(self, frame: EthernetFrame) -> None:
        self.fabric._carry(self.nic, frame)


class Fabric:
    """A cut-through switch with per-hop latency and injectable faults."""

    def __init__(self, env: Environment, latency_ns: int = 1_000,
                 metrics: MetricRegistry | None = None):
        self.env = env
        self.latency_ns = latency_ns
        self._nics: dict[str, Nic] = {}
        self.fault_injectors: list = []
        # Fast-path delivery batch: frames carried at the same instant with
        # nothing injected share one timer (constant latency => identical
        # arrival instants).  ``frames_batched`` counts fast-path frames so
        # tests can prove which path a run took.
        self._batch: list[tuple[Nic, EthernetFrame]] | None = None
        self._batch_at = -1
        self.frames_batched = 0
        registry = resolve_registry(metrics)
        self.metrics = registry
        # Counts: this fabric's own registry cells (read as ``.value``);
        # drops get one cell per cause, made on the cause's first drop.
        self.frames_carried = registry.counter(
            "fabric_frames_carried", "frames the switch forwarded").cell()
        self._m_dropped = registry.counter(
            "fabric_frames_dropped", "frames the switch dropped, by cause",
            labelnames=("reason",))
        self._dropped: dict[str, Cell] = {}
        self._m_duplicated = registry.counter(
            "fabric_frames_duplicated", "extra frame copies injected")
        self._m_delayed = registry.counter(
            "fabric_frames_delayed", "frames delivered with injected delay")

    def attach(self, nic: Nic) -> None:
        if nic.address in self._nics:
            raise ValueError(f"duplicate NIC address {nic.address}")
        self._nics[nic.address] = nic
        nic.attach_link(_Port(self, nic))

    # -- fault injection -----------------------------------------------------
    def add_fault_injector(self, injector) -> None:
        self.fault_injectors.append(injector)

    def clear_fault_injectors(self) -> None:
        self.fault_injectors.clear()

    # -- forwarding ----------------------------------------------------------
    @property
    def frames_dropped(self) -> int:
        """Frames dropped, every cause summed."""
        return sum(cell.value for cell in self._dropped.values())

    def _drop(self, reason: str) -> None:
        cell = self._dropped.get(reason)
        if cell is None:
            cell = self._dropped[reason] = self._m_dropped.cell(reason=reason)
        cell.value += 1

    def _carry(self, src_nic: Nic, frame: EthernetFrame) -> None:
        if not self.fault_injectors:
            # Fast path: nothing can drop, duplicate, or delay this frame.
            dst = self._nics.get(frame.dst)
            if dst is None:
                self._drop("no_route")
                return
            self.frames_carried.value += 1
            if dst.ring_pressure == 0:
                self._carry_fast(dst, frame)
            else:
                # Phantom RX pressure is a fault-injection knob: keep the
                # per-frame delivery process so faulted runs stay
                # bit-for-bit on the historical path.
                self.env.process(self._deliver_one(dst, frame, 0),
                                 name="fabric.deliver")
            return
        self._carry_slow(src_nic, frame)

    def _carry_fast(self, dst: Nic, frame: EthernetFrame) -> None:
        """Deliver via a shared timer: one heap event per carry *instant*.

        The fabric latency is constant on this path, so every frame carried
        at the same instant arrives at the same instant; flushing them from
        one timer in carry order reproduces exactly the delivery order the
        per-frame processes produced.
        """
        self.frames_batched += 1
        batch = self._batch
        if batch is not None and self._batch_at == self.env.now:
            batch.append((dst, frame))
            return
        batch = [(dst, frame)]
        self._batch = batch
        self._batch_at = self.env.now
        timer = self.env.timeout(self.latency_ns)
        timer.callbacks.append(lambda _ev, b=batch: self._flush_batch(b))

    def _flush_batch(self, batch: list[tuple[Nic, EthernetFrame]]) -> None:
        if batch is self._batch:
            self._batch = None
            self._batch_at = -1
        for dst, frame in batch:
            dst.deliver(frame)

    def _carry_slow(self, src_nic: Nic, frame: EthernetFrame) -> None:
        """Per-frame path: the historical code, byte-for-byte behavior.

        Taken whenever anything interesting can happen to the frame — any
        attached fault injector — so faulted runs produce the same digests
        they always did.
        """
        copies = 1
        extra_delay = 0
        for injector in self.fault_injectors:
            verdict = injector.on_frame(frame, self.env.now)
            if verdict is None:
                continue
            if verdict.drop:
                self._drop(verdict.drop_reason)
                return
            if verdict.duplicate:
                copies += 1
            extra_delay += verdict.extra_delay_ns
        dst = self._nics.get(frame.dst)
        if dst is None:
            self._drop("no_route")
            return
        self.frames_carried.value += 1
        if copies > 1:
            self._m_duplicated.inc(copies - 1)
        if extra_delay > 0:
            self._m_delayed.inc()
        for _ in range(copies):
            self.env.process(self._deliver_one(dst, frame, extra_delay),
                             name="fabric.deliver")

    def _deliver_one(self, dst: Nic, frame: EthernetFrame, extra_delay: int):
        yield self.env.timeout(self.latency_ns + extra_delay)
        dst.deliver(frame)

    def addresses(self) -> list[str]:
        return list(self._nics)


# -- PDES shard fabric --------------------------------------------------------


@dataclass(frozen=True)
class EtherCrossing:
    """One Ethernet frame crossing a PDES shard boundary.

    The real :class:`~repro.hw.nic.EthernetFrame` rides inside (every
    Open-MX wire packet — eager frags, rndv, pull req/reply, notify,
    liback — is a frozen picklable dataclass, so the whole thing
    marshals over the worker pipe untouched).  ``src``/``dst`` are global
    *host ids*: the coordinator routes on ``dst`` without knowing
    anything about addresses, and ``(src, seq, copy)`` is the canonical
    same-instant merge key — ``seq`` is the per-source-NIC TX sequence
    the NIC stamped when the frame left the wire, monotonic and
    shard-independent.
    """

    src: int
    dst: int
    seq: int
    copy: int
    frame: EthernetFrame


class ShardEtherFabric:
    """A fabric whose hosts may live in *other* PDES worker processes.

    It carries **real Ethernet frames** between **real NICs**, so complete
    Open-MX hosts — kernel, MMU notifiers, pin service, driver, softirq,
    NIC — can be partitioned across PDES workers
    (:mod:`repro.sim.pdes`).  It plugs into :meth:`Nic.attach_link`
    exactly like the serial :class:`Fabric` (the NIC, driver and kernel
    cannot tell the difference) and routes by NIC address through a
    global ``host id -> address`` table against a
    :class:`~repro.cluster.builder.ShardPlan`.  Frames for shard-local
    hosts are scheduled in the local environment; frames for hosts owned
    by another shard are buffered on the **egress** stub
    (:meth:`take_egress`) for the coordinator to route at the next
    window barrier, and arrive through the **ingress** stub
    (:meth:`ingress`) on the owning shard.  Determinism discipline:

    * delivery batched per ``(arrival, dst host)`` — one timer per pair,
      so engine event counts equal the serial (1-shard) run exactly;
    * each batch delivered sorted by the canonical ``(src host, NIC tx
      seq, copy)`` key, independent of shard count and event ids;
    * faults only via a **pure** plan ``(src, dst, seq) -> (drop, copies,
      extra_delay_ns)`` evaluated at carry time on the source shard —
      stateful injector chains are rejected by construction (there is no
      ``add_fault_injector``) because their verdicts would depend on the
      partition.

    The lookahead a coordinator may use over this fabric is
    ``latency_ns``: a frame leaves the source NIC at carry time ``t``
    (TX wire serialization already happened inside the source host) and
    arrives at ``t + latency_ns + extra_delay >= t + latency_ns``.
    :meth:`ingress` refuses a frame whose arrival is not strictly in the
    local future: that would mean the window math was violated, and
    applying it would rewrite history — abort loudly instead.
    """

    def __init__(self, env: Environment, latency_ns: int, plan, shard_id: int,
                 host_addrs: dict[int, str], fault=None,
                 metrics: MetricRegistry | None = None):
        if latency_ns <= 0:
            raise ValueError(f"latency_ns must be positive, got {latency_ns}")
        self.env = env
        self.latency_ns = latency_ns
        self.plan = plan
        self.shard_id = shard_id
        self.local_hosts = frozenset(plan.shards[shard_id])
        self.fault = fault
        self._addr_of = dict(host_addrs)
        self._host_of = {a: h for h, a in host_addrs.items()}
        if len(self._host_of) != len(self._addr_of):
            raise ValueError("duplicate NIC address in host_addrs")
        self._nics: dict[int, Nic] = {}
        # (arrival_ns, dst_host) -> [(sort_key, frame), ...] pending batches.
        self._pending: dict[tuple[int, int],
                            list[tuple[tuple[int, int, int], EthernetFrame]]] = {}
        self._egress: list[tuple[int, EtherCrossing]] = []
        # Counters: plain attributes, except the three this fabric's own
        # registry cells hold (read as ``.value``).
        self.frames_carried = 0
        self.frames_delivered = 0
        self.frames_duplicated = 0
        self.frames_delayed = 0
        registry = resolve_registry(metrics)
        self.metrics = registry
        self.frames_local = registry.counter(
            "pdes_frames_local",
            "shard-fabric frames delivered shard-locally").cell()
        self.frames_cross_shard = registry.counter(
            "pdes_frames_cross_shard",
            "shard-fabric frames handed to the egress stub for another shard",
        ).cell()
        self.frames_dropped = registry.counter(
            "pdes_frames_dropped",
            "shard-fabric frames dropped by fault plan").cell()

    def attach(self, nic: Nic) -> None:
        """Wire one shard-local NIC into the fabric (serial-Fabric API)."""
        host = self._host_of.get(nic.address)
        if host is None:
            raise ValueError(f"NIC address {nic.address!r} is not in the "
                             "cluster's host table")
        if host not in self.local_hosts:
            raise ValueError(f"host {host} ({nic.address}) is not local to "
                             f"shard {self.shard_id}")
        if host in self._nics:
            raise ValueError(f"duplicate NIC for host {host}")
        self._nics[host] = nic
        nic.attach_link(_Port(self, nic))

    def address_of(self, host_id: int) -> str:
        """NIC address of any global host — local or remote."""
        return self._addr_of[host_id]

    # -- forwarding ----------------------------------------------------------
    def _carry(self, src_nic: Nic, frame: EthernetFrame) -> None:
        src = self._host_of[frame.src]
        dst = self._host_of.get(frame.dst)
        if dst is None:
            self.frames_dropped.value += 1
            return
        copies, extra_delay = 1, 0
        if self.fault is not None:
            drop, copies, extra_delay = self.fault(src, dst, frame.seq)
            if drop:
                self.frames_dropped.value += 1
                return
            if extra_delay:
                self.frames_delayed += 1
        self.frames_carried += 1
        if copies > 1:
            self.frames_duplicated += copies - 1
        arrival = self.env.now + self.latency_ns + extra_delay
        local = dst in self.local_hosts
        for copy in range(copies):
            if local:
                self.frames_local.value += 1
                self._schedule(arrival, dst, (src, frame.seq, copy), frame)
            else:
                self.frames_cross_shard.value += 1
                self._egress.append(
                    (arrival, EtherCrossing(src=src, dst=dst, seq=frame.seq,
                                            copy=copy, frame=frame)))

    def _schedule(self, arrival: int, dst: int,
                  key: tuple[int, int, int], frame: EthernetFrame) -> None:
        pkey = (arrival, dst)
        batch = self._pending.get(pkey)
        if batch is None:
            self._pending[pkey] = batch = []
            timer = self.env.timeout(arrival - self.env.now)
            timer.callbacks.append(lambda _ev, k=pkey: self._flush(k))
        batch.append((key, frame))

    def _flush(self, pkey: tuple[int, int]) -> None:
        batch = self._pending.pop(pkey)
        # Canonical same-instant merge order: entries arrive here from
        # local carries and from window-barrier ingress in arbitrary
        # order; the sort makes delivery order a pure function of the
        # frames themselves.
        batch.sort(key=lambda e: e[0])
        nic = self._nics[pkey[1]]
        for _key, frame in batch:
            self.frames_delivered += 1
            nic.deliver(frame)

    # -- cross-shard stubs ----------------------------------------------------
    def take_egress(self) -> list[tuple[int, EtherCrossing]]:
        """Drain the frames bound for other shards (coordinator barrier)."""
        out = self._egress
        self._egress = []
        return out

    def ingress(self, entries) -> None:
        """Apply cross-shard crossings routed here by the coordinator."""
        now = self.env.now
        for arrival, crossing in entries:
            if arrival <= now:
                raise SimulationError(
                    f"conservative window violated: ingress frame "
                    f"{crossing} arrives at {arrival} but shard clock is "
                    f"already at {now}")
            if crossing.dst not in self.local_hosts:
                raise SimulationError(
                    f"misrouted ingress frame {crossing}: host "
                    f"{crossing.dst} is not local to this shard")
            self._schedule(arrival, crossing.dst,
                           (crossing.src, crossing.seq, crossing.copy),
                           crossing.frame)
