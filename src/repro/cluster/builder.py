"""Cluster assembly: N hosts, each with a kernel, an Open-MX driver, and a
set of application processes, all wired to one Ethernet fabric.

This is the testbed constructor every experiment and example uses.  The
default shape mirrors the paper's: two Xeon E5460 nodes with Myri-10G
Ethernet interfaces (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.host import Host
from repro.hw.specs import DEFAULT_IOAT, MYRI_10G, XEON_E5460, CpuSpec, IoatSpec, NicSpec
from repro.kernel.kernel import Kernel, UserProcess
from repro.obs.metrics import MetricRegistry, current_registry, resolve_registry
from repro.obs.spans import SpanTracker
from repro.openmx.config import OpenMXConfig
from repro.openmx.driver import OpenMXDriver
from repro.openmx.lib import OmxLib
from repro.sim import Environment
from repro.util.units import GIB

__all__ = ["Cluster", "Node", "ShardPlan", "build_cluster", "nic_address",
           "partition_hosts"]


def nic_address(host_id: int) -> str:
    """The NIC (MAC) address of cluster host ``host_id``.

    :func:`build_cluster` names hosts ``host{h}`` and each host names its
    single port ``{name}/nic0``, so the address is derivable from the host
    id alone — which is what lets a PDES shard route frames to hosts that
    were built in *other* worker processes.
    """
    return f"host{host_id}/nic0"


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of cluster hosts to PDES shards.

    ``shards[s]`` is the sorted tuple of host ids simulated by shard ``s``;
    every host appears in exactly one shard.  The plan is pure data
    (hashable, picklable) so the coordinator can hand it to forked workers
    and every side derives identical routing from it.
    """

    nhosts: int
    shards: tuple[tuple[int, ...], ...]

    @property
    def nshards(self) -> int:
        return len(self.shards)

    def shard_of(self, host: int) -> int:
        """The shard simulating ``host`` (O(1) via the cached map)."""
        return self._owner[host]

    def __post_init__(self) -> None:
        owner: dict[int, int] = {}
        for s, hosts in enumerate(self.shards):
            for h in hosts:
                if h in owner:
                    raise ValueError(f"host {h} assigned to shards "
                                     f"{owner[h]} and {s}")
                if not 0 <= h < self.nhosts:
                    raise ValueError(f"host {h} outside 0..{self.nhosts - 1}")
                owner[h] = s
        if len(owner) != self.nhosts:
            missing = sorted(set(range(self.nhosts)) - set(owner))
            raise ValueError(f"hosts {missing} assigned to no shard")
        object.__setattr__(self, "_owner", owner)


def partition_hosts(nhosts: int, nshards: int, strategy: str = "block",
                    traffic: dict[tuple[int, int], float] | None = None
                    ) -> ShardPlan:
    """Partition ``nhosts`` host ids across ``nshards`` PDES shards.

    ``strategy="block"`` gives each shard a contiguous run of host ids
    (hosts that talk to near neighbours stay co-resident); ``"stripe"``
    deals hosts round-robin (balances hot hosts that were built in id
    order); ``"affinity"`` reads a ``traffic`` matrix — ``{(src, dst):
    weight}``, direction-folded — and greedily co-places the heaviest
    sender/receiver pairs on the same shard to cut cross-shard frames.
    All strategies are deterministic and balanced to within one host, and
    shards are never empty — ``nshards`` is clamped to ``nhosts``.

    The partition never affects simulated behaviour (that is the PDES
    byte-identity contract); affinity only moves frames from the
    coordinator's barrier exchange to shard-local delivery.
    """
    if nhosts <= 0:
        raise ValueError(f"nhosts must be positive, got {nhosts}")
    if nshards <= 0:
        raise ValueError(f"nshards must be positive, got {nshards}")
    nshards = min(nshards, nhosts)
    if strategy == "block":
        base, extra = divmod(nhosts, nshards)
        shards = []
        start = 0
        for s in range(nshards):
            size = base + (1 if s < extra else 0)
            shards.append(tuple(range(start, start + size)))
            start += size
    elif strategy == "stripe":
        shards = [tuple(range(s, nhosts, nshards)) for s in range(nshards)]
    elif strategy == "affinity":
        shards = _partition_affinity(nhosts, nshards, traffic or {})
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    return ShardPlan(nhosts=nhosts, shards=tuple(shards))


def _partition_affinity(nhosts: int, nshards: int,
                        traffic: dict[tuple[int, int], float]
                        ) -> list[tuple[int, ...]]:
    """Greedy heaviest-pair co-placement under per-shard capacity caps.

    Pairs are visited by descending folded weight (ties broken by host
    ids), each shard holds at most ``ceil(nhosts / nshards)``-ish hosts
    (the same block capacities, so balance matches the other strategies),
    and unplaced hosts backfill the freest shard in id order.  Everything
    is pure integer/str comparison — no hashing order, no RNG — so every
    worker and every run derives the identical plan.
    """
    base, extra = divmod(nhosts, nshards)
    cap = [base + (1 if s < extra else 0) for s in range(nshards)]
    load = [0] * nshards
    owner: dict[int, int] = {}

    weights: dict[tuple[int, int], float] = {}
    for (a, b), w in traffic.items():
        if a == b or not (0 <= a < nhosts and 0 <= b < nhosts):
            continue
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0.0) + w

    def freest(need: int) -> int | None:
        best = None
        best_free = 0
        for s in range(nshards):
            free = cap[s] - load[s]
            if free >= need and free > best_free:
                best, best_free = s, free
        return best

    for (a, b), _w in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0])):
        oa, ob = owner.get(a), owner.get(b)
        if oa is None and ob is None:
            s = freest(2)
            if s is not None:
                owner[a] = owner[b] = s
                load[s] += 2
        elif oa is not None and ob is None and load[oa] < cap[oa]:
            owner[b] = oa
            load[oa] += 1
        elif ob is not None and oa is None and load[ob] < cap[ob]:
            owner[a] = ob
            load[ob] += 1
    for h in range(nhosts):
        if h not in owner:
            s = freest(1)
            assert s is not None  # capacities sum to nhosts
            owner[h] = s
            load[s] += 1
    shards: list[list[int]] = [[] for _ in range(nshards)]
    for h in range(nhosts):
        shards[owner[h]].append(h)
    return [tuple(s) for s in shards]


@dataclass
class Node:
    """One host plus its kernel, driver and processes."""

    host: Host
    kernel: Kernel
    driver: OpenMXDriver
    procs: list[UserProcess] = field(default_factory=list)
    libs: list[OmxLib] = field(default_factory=list)


@dataclass
class Cluster:
    env: Environment
    fabric: object
    nodes: list[Node]
    config: OpenMXConfig
    spans: SpanTracker
    metrics: MetricRegistry | None = None
    # Global ids of the hosts actually built here.  A serial cluster owns
    # 0..nhosts-1; a PDES sub-cluster owns only its shard's slice of the
    # global id space (nodes[i] simulates host_ids[i]).
    host_ids: tuple[int, ...] = ()

    def lib(self, node: int, proc: int = 0) -> OmxLib:
        return self.nodes[node].libs[proc]

    def all_libs(self) -> list[OmxLib]:
        return [lib for node in self.nodes for lib in node.libs]

    def node(self, host_id: int) -> Node:
        """The node simulating global host ``host_id`` (shard-aware)."""
        return self.nodes[self.host_ids.index(host_id)]


def build_cluster(
    nhosts: int = 2,
    procs_per_host: int = 1,
    cpu: CpuSpec = XEON_E5460,
    nic: NicSpec = MYRI_10G,
    ioat: IoatSpec | None = DEFAULT_IOAT,
    config: OpenMXConfig | None = None,
    memory_bytes: int = 2 * GIB,
    fabric_latency_ns: int = 4_000,
    trace: bool = False,
    trace_capacity: int | None = None,
    bh_core_index: int = 0,
    first_app_core: int | None = None,
    metrics: MetricRegistry | None = None,
    pin_fraction: float | None = None,
    shard_plan: ShardPlan | None = None,
    shard_id: int = 0,
    shard_fault=None,
) -> Cluster:
    """Build a ready-to-run cluster.

    Application processes are placed on cores ``first_app_core``,
    ``first_app_core+1``, ... (default: core 1, keeping core 0 free for
    interrupt bottom halves, the usual IRQ-affinity setup).  Endpoint ids
    equal the process index on each host.

    ``trace=True`` turns on the cluster's one trace stream,
    ``cluster.spans``: every driver records its protocol marks and span
    trees there, bounded to ``trace_capacity`` entries (``None``: all).

    With ``shard_plan`` set, this builds the **sub-cluster** for one PDES
    shard instead: only the hosts in ``shard_plan.shards[shard_id]`` are
    constructed (with their global names, so NIC addresses match the
    serial build), and they are wired to a
    :class:`~repro.cluster.network.ShardEtherFabric` that delivers
    shard-local frames itself and hands cross-shard frames to the
    coordinator's egress/ingress stubs.  ``shard_fault`` is an optional
    pure fault plan (``repro.sim.pdes.SeededFaultPlan``) applied at carry
    time — stateful fault injectors cannot be used on a sharded fabric
    because their verdicts would depend on the partition.
    """
    from repro.cluster.network import Fabric, ShardEtherFabric

    if config is None:
        config = OpenMXConfig()
    if first_app_core is None:
        first_app_core = 1 if cpu.ncores > 1 else 0
    if first_app_core + procs_per_host > cpu.ncores and procs_per_host > 1:
        first_app_core = 0  # fall back to sharing all cores
    env = Environment()
    if metrics is None and current_registry() is None:
        # Nobody is collecting: hand every layer shared no-op metrics so
        # benchmarks and plain runs pay (almost) nothing for instrumentation.
        registry = MetricRegistry(enabled=False)
    else:
        registry = resolve_registry(metrics)
    env.metrics = registry
    spans = SpanTracker(capacity=trace_capacity, enabled=trace)
    if shard_plan is None:
        if shard_fault is not None:
            raise ValueError("shard_fault requires shard_plan (the serial "
                             "Fabric uses fault injectors instead)")
        host_ids = tuple(range(nhosts))
        fabric = Fabric(env, latency_ns=fabric_latency_ns, metrics=registry)
    else:
        if shard_plan.nhosts != nhosts:
            raise ValueError(f"shard plan covers {shard_plan.nhosts} hosts "
                             f"but the cluster has {nhosts}")
        host_ids = shard_plan.shards[shard_id]
        fabric = ShardEtherFabric(
            env, fabric_latency_ns, shard_plan, shard_id,
            {h: nic_address(h) for h in range(nhosts)},
            fault=shard_fault, metrics=registry)
    nodes: list[Node] = []
    for h in host_ids:
        host = Host(env, f"host{h}", cpu, nic_spec=nic,
                    memory_bytes=memory_bytes, ioat_spec=ioat,
                    metrics=registry)
        kernel = Kernel(host, bh_core_index=bh_core_index,
                        pin_fraction=pin_fraction)
        fabric.attach(host.nic)
        driver = OpenMXDriver(kernel, config, spans=spans)
        node = Node(host=host, kernel=kernel, driver=driver)
        for p in range(procs_per_host):
            core = (first_app_core + p) % cpu.ncores
            proc = kernel.new_process(f"rank{p}", core_index=core)
            node.procs.append(proc)
            node.libs.append(OmxLib(proc, driver, endpoint_id=p))
        nodes.append(node)
    return Cluster(env=env, fabric=fabric, nodes=nodes, config=config,
                   spans=spans, metrics=registry, host_ids=host_ids)
