"""Which simulator layer each ``repro`` module belongs to, and the split of a
cProfile run's self time and cross-layer calls by layer.

Frames outside ``repro`` (builtins, the standard library, numpy) are
charged to the layer that called them, so ``np.argsort`` lands in
``workloads`` and a generator resumed through ``gen.send`` counts as a call
from the engine.  Frames of this benchmark, and anything only they call,
are charged to :data:`BENCH`.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

__all__ = ["BENCH", "LAYERS", "MODULE_LAYER", "layer_of_module",
           "module_of_file", "split_profile"]

LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("repro.sim", "repro.sim.engine"),
    "sim.resources": ("repro.sim.resources",),
    "sim.pdes": ("repro.sim.pdes", "repro.sim.openmx_shard"),
    "hw.memory": ("repro.hw.memory",),
    "hw.nic": ("repro.hw.nic", "repro.hw.ioat"),
    "hw.cpu": ("repro.hw", "repro.hw.cpu", "repro.hw.host", "repro.hw.specs"),
    "kernel.vm": ("repro.kernel.address_space", "repro.kernel.allocator",
                  "repro.kernel.mmu_notifier"),
    "kernel.pinning": ("repro.kernel.pinning",),
    "kernel.net": ("repro.kernel.interrupts", "repro.kernel.ethernet"),
    "kernel.context": ("repro.kernel", "repro.kernel.context",
                       "repro.kernel.kernel"),
    "openmx.driver": ("repro.openmx.driver", "repro.openmx.wire",
                      "repro.openmx.events"),
    "openmx.lib": ("repro.openmx", "repro.openmx.lib", "repro.openmx.config"),
    "openmx.regions": ("repro.openmx.regions", "repro.openmx.region_cache",
                       "repro.openmx.pin_manager"),
    "cluster": ("repro.cluster", "repro.cluster.builder",
                "repro.cluster.network"),
    "mpi": ("repro.mpi", "repro.mpi.collectives", "repro.mpi.comm"),
    "workloads": ("repro.workloads", "repro.workloads.imb",
                  "repro.workloads.npb_is", "repro.workloads.patterns",
                  "repro.baselines", "repro.baselines.pipelined_reg",
                  "repro.baselines.registration_models",
                  "repro.baselines.tcp", "repro.baselines.userspace_cache"),
    "faults": ("repro.faults", "repro.faults.chaos", "repro.faults.invariants",
               "repro.faults.models", "repro.faults.plan",
               "repro.faults.shrink", "repro.faults.torture"),
    "obs": ("repro.obs", "repro.obs.__main__", "repro.obs.cli",
            "repro.obs.export", "repro.obs.metrics", "repro.obs.ring",
            "repro.obs.spans"),
    "experiments": ("repro", "repro.experiments",
                    "repro.experiments.__main__",
                    "repro.experiments.ablations", "repro.experiments.cache",
                    "repro.experiments.figures67",
                    "repro.experiments.motivation",
                    "repro.experiments.overlap_miss",
                    "repro.experiments.parallel", "repro.experiments.report",
                    "repro.experiments.reuse_sweep",
                    "repro.experiments.runner", "repro.experiments.table1",
                    "repro.experiments.table2",
                    "repro.experiments.timelines", "repro.sim.bench",
                    "repro.sim.trace", "repro.util", "repro.util.units"),
}

#: The benchmark's own frames, and library frames only they call.
BENCH = "bench"

MODULE_LAYER: dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules
}

_BENCH_DIR = Path(__file__).resolve().parent


def module_of_file(path: Path, src: Path) -> str | None:
    """Dotted module name of a ``repro`` source file, else ``None``."""
    try:
        rel = path.resolve().relative_to(src.resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of_module(module: str) -> str:
    """The module's layer; a module missing from :data:`LAYERS` falls back
    to its package's layer (the tests require every module to be listed)."""
    name = module
    while name not in MODULE_LAYER:
        name, _, _ = name.rpartition(".")
        if not name:
            raise KeyError(f"{module} is not a repro module")
    return MODULE_LAYER[name]


def _own_layers(stats: dict, src: Path) -> dict:
    own = {}
    files: dict[str, str | None] = {}
    for func in stats:
        filename = func[0]
        if filename not in files:
            path = Path(filename)
            module = module_of_file(path, src) if path.is_file() else None
            if module is not None:
                files[filename] = layer_of_module(module)
            elif path.is_file() and path.resolve().parent == _BENCH_DIR:
                files[filename] = BENCH
            else:
                files[filename] = None
        own[func] = files[filename]
    return own


def _shares(stats: dict, own: dict, weight: int) -> dict:
    """Layer shares of every function: 1.0 of its own layer for repro and
    benchmark frames, else the caller-weighted mix of its callers' shares.

    ``weight`` indexes the cProfile caller-edge tuple ``(cc, nc, tt, ct)``:
    2 (self time) attributes time, 1 (call count) attributes calls and is
    deterministic.  Chains of library frames resolve by iteration.
    """
    shares = {f: {layer: 1.0} for f, layer in own.items() if layer}
    pending = sorted(f for f, layer in own.items() if not layer)
    for f in pending:
        shares[f] = {BENCH: 1.0}
    for _ in range(64):
        changed = False
        for f in pending:
            callers = stats[f][4]
            total = sum(edge[weight] for edge in callers.values())
            if not total:
                continue
            mix: dict[str, float] = defaultdict(float)
            for caller in sorted(callers):
                w = callers[caller][weight] / total
                for layer, share in shares.get(caller, {BENCH: 1.0}).items():
                    mix[layer] += w * share
            if mix != shares[f]:
                shares[f] = dict(mix)
                changed = True
        if not changed:
            break
    return shares


def split_profile(stats: dict, src: Path) -> tuple[dict[str, float],
                                                   dict[str, float]]:
    """Split ``cProfile.Profile().stats`` into per-layer self seconds and
    per-layer incoming calls (calls whose caller is in another layer).

    Returns ``(self_s, calls_in)``, each keyed by every layer in
    :data:`LAYERS` plus :data:`BENCH`.
    """
    own = _own_layers(stats, src)
    by_time = _shares(stats, own, weight=2)
    by_calls = _shares(stats, own, weight=1)
    self_s = dict.fromkeys([*LAYERS, BENCH], 0.0)
    calls_in = dict.fromkeys([*LAYERS, BENCH], 0.0)
    for func in sorted(stats):
        tt = stats[func][2]
        for layer, share in by_time[func].items():
            self_s[layer] += tt * share
        layer = own[func]
        if not layer:
            continue
        callers = stats[func][4]
        for caller in sorted(callers):
            outside = 1.0 - by_calls.get(caller, {BENCH: 1.0}).get(layer, 0.0)
            calls_in[layer] += callers[caller][1] * outside
    return self_s, calls_in
