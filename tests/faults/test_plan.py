"""FaultPlan: sampling, application to a cluster, and metric export."""

from repro.cluster import build_cluster
from repro.faults import BernoulliLoss, FaultPlan, PinFaults
from repro.obs.metrics import MetricRegistry
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB


def test_sample_is_pure_function_of_seed():
    assert FaultPlan.sample(17) == FaultPlan.sample(17)
    assert any(FaultPlan.sample(i) != FaultPlan.sample(i + 1)
               for i in range(10))


def test_build_network_models_gives_fresh_identically_seeded_instances():
    plan = FaultPlan(seed=3, bernoulli_loss=0.5)
    a, b = plan.build_network_models(), plan.build_network_models()
    assert len(a) == len(b) == 1
    assert isinstance(a[0], BernoulliLoss)
    assert a[0] is not b[0]
    # Same seed stream: identical decisions.
    assert ([a[0].rng.random() for _ in range(20)]
            == [b[0].rng.random() for _ in range(20)])


def test_apply_wires_fabric_pin_hooks_and_ring_pressure():
    plan = FaultPlan(seed=1, bernoulli_loss=0.01, duplicate_prob=0.01,
                     pin_fail_prob=0.2, ring_pressure=5000)
    cluster = build_cluster(metrics=MetricRegistry())
    applied = plan.apply(cluster)
    assert len(cluster.fabric.fault_injectors) == 2
    for node in cluster.nodes:
        assert isinstance(node.kernel.pin.fault_hook, PinFaults)
        entries = node.host.nic.spec.rx_ring_entries
        # Clamped: a few descriptors always stay live.
        assert node.host.nic.ring_pressure == entries - 8
    assert set(applied.injection_counts()) == \
        {"BernoulliLoss", "Duplicate", "PinFaults"}
    assert applied.total_injected == 0  # nothing carried yet


def test_zero_plan_applies_nothing():
    applied = FaultPlan(seed=0).apply(build_cluster())
    assert applied.network == [] and applied.pin is None
    assert applied.total_injected == 0


def test_injections_reach_the_obs_registry():
    registry = MetricRegistry()
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE),
        metrics=registry)
    plan = FaultPlan(seed=2, bernoulli_loss=0.05)
    applied = plan.apply(cluster)

    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 1 * MIB
    sbuf, rbuf = sp.malloc(n), rp.malloc(n)
    sp.write(sbuf, bytes(i % 251 for i in range(n)))

    def sender():
        req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, n, 1)
        yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    model = applied.network[0]
    assert model.injected.value > 0
    fam = registry.get("fault_injections")
    assert fam is not None
    assert fam.labels(model="BernoulliLoss").value == model.injected.value
    # The fabric accounted the drops with the model's name as reason.
    drops = registry.get("fabric_frames_dropped")
    assert drops.labels(reason="BernoulliLoss").value == model.injected.value
