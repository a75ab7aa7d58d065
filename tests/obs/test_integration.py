"""End-to-end observability: the registry's view must agree exactly with the
authoritative per-driver counters, histograms must capture real latencies,
and tracing must stay bounded while every pinning mode still works."""

import pytest

from repro.cluster import build_cluster
from repro.hw.nic import EthernetFrame
from repro.kernel.context import AcquiringContext
from repro.kernel.ethernet import ETH_P_OMX
from repro.obs.metrics import MetricRegistry
from repro.openmx import OpenMXConfig, PinningMode
from repro.openmx.wire import Rndv
from repro.util.units import MIB


def transfer(cluster, nbytes, tag=1):
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    data = bytes(i % 253 for i in range(nbytes))
    sp.write(sbuf, data)

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, tag)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, nbytes, tag)
        yield from r.wait(req)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    assert rp.read(rbuf, nbytes) == data


def build_forced_miss_cluster(registry):
    """Three hosts; host1's rank shares the interrupt core and a paced flood
    from host2 starves its pinning loop — overlap misses are guaranteed."""
    cluster = build_cluster(
        nhosts=3,
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            resend_timeout_ns=20_000_000),
        first_app_core=0,
        metrics=registry,
        trace=True, trace_capacity=2048,
    )

    def flood_handler(frame, ctx):
        yield from ctx.charge(10_000)

    for node in cluster.nodes:
        node.kernel.ethernet.register_protocol(0x0800, flood_handler)
    env = cluster.env

    def flood():
        src = cluster.nodes[2]
        dst = cluster.nodes[1].host.nic.address
        ctx = AcquiringContext(env, src.host.cores[-1])
        while True:
            yield from src.kernel.ethernet.xmit(ctx, dst, "x", 4096,
                                                ethertype=0x0800)
            yield env.timeout(10_500)

    env.process(flood())
    return cluster


def test_registry_overlap_miss_equals_driver_counters_under_forced_miss():
    registry = MetricRegistry()
    cluster = build_forced_miss_cluster(registry)
    transfer(cluster, 1 * MIB)

    driver_misses = {
        name: sum(node.driver.counters[name] for node in cluster.nodes)
        for name in ("overlap_miss_recv", "overlap_miss_send")
    }
    assert sum(driver_misses.values()) > 0, "scenario must force misses"
    for name, expected in driver_misses.items():
        fam = registry.get(f"omx_{name}")
        # Mirror families are created lazily on first increment, so a zero
        # driver count may legitimately have no registry family yet.
        value = fam.value if fam is not None else 0
        assert value == expected, name


def test_pin_latency_and_pin_wait_histograms_capture_the_starvation():
    registry = MetricRegistry()
    cluster = build_forced_miss_cluster(registry)
    transfer(cluster, 1 * MIB)

    pin_lat = registry.get("kernel_pin_latency_ns")
    assert pin_lat is not None
    starved = pin_lat.labels(host="host1")
    normal = pin_lat.labels(host="host0")
    assert starved.count > 0 and normal.count > 0
    # The starved host's pin calls take far longer than the sender's.
    assert starved.percentile(99) > normal.percentile(99)

    pin_wait = registry.get("omx_pin_wait_ns")
    assert pin_wait is not None
    waits = pin_wait.labels(host="host1", mode="overlap", side="recv")
    assert waits.count > 0
    assert waits.summary()["p99"] >= waits.summary()["p50"] > 0


def test_nic_softirq_and_engine_metrics_are_wired():
    registry = MetricRegistry()
    cluster = build_forced_miss_cluster(registry)
    transfer(cluster, 1 * MIB)

    rx = registry.get("nic_rx_frames")
    node1 = cluster.nodes[1]
    assert (rx.labels(nic="host1/nic0").value
            == node1.host.nic.rx_frames.value > 0)
    assert registry.get("nic_rx_ring_drops") is not None
    assert (registry.get("softirq_frames_processed").labels(nic="host1/nic0")
            .value == node1.kernel.softirq.frames_processed.value > 0)
    depth = registry.get("softirq_backlog_depth").labels(nic="host1/nic0")
    assert depth.count == node1.kernel.softirq.bh_runs.value > 0
    # The engine mirrors its event totals into the same registry.
    assert (registry.get("sim_events_processed").value
            == cluster.env.events_processed > 0)


def test_pinned_pages_gauge_returns_to_zero_after_uncached_transfer():
    registry = MetricRegistry()
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM),
        metrics=registry,
    )
    transfer(cluster, 512 * 1024)
    gauge = registry.get("kernel_pinned_pages")
    for host in ("host0", "host1"):
        assert gauge.labels(host=host).value == 0, host


def traced_transfer(mode, trace_capacity):
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=mode),
        metrics=MetricRegistry(),
        trace=True, trace_capacity=trace_capacity,
    )
    transfer(cluster, 2 * MIB)
    return cluster


@pytest.mark.parametrize("mode", list(PinningMode))
def test_every_mode_records_closed_rndv_trees(mode):
    cluster = traced_transfer(mode, None)
    assert cluster.spans.dropped == 0
    by_source = {}
    for span in cluster.spans.spans():
        by_source.setdefault(span.source, []).append(span)
    # Spans recorded a closed rndv tree on both sides.
    for node in cluster.nodes[:2]:
        spans = by_source[node.driver.board]
        roots = [s for s in spans if s.name == "rndv"]
        assert roots, f"no rndv span on {node.host.name}"
        assert all(not s.open for s in roots)
        assert any(s.name == "pin" for s in spans)
    recv_spans = by_source[cluster.nodes[1].driver.board]
    assert any(s.name.startswith("pull[") for s in recv_spans)
    assert any(s.name == "notify" for s in recv_spans)
    assert any(s.name == "copy" for s in recv_spans)


@pytest.mark.parametrize("mode", list(PinningMode))
def test_every_mode_runs_with_bounded_tracing_and_spans(mode):
    full = traced_transfer(mode, None).spans.to_list()
    bounded = traced_transfer(mode, 256).spans
    assert len(full) > 256
    # The capacity bounds the whole stream, marks and spans together: the
    # bounded run keeps exactly the newest 256 entries of the full one.
    assert len(bounded) == 256
    assert bounded.dropped == len(full) - 256

    def keys(entries):
        return [(s.mark, s.name, s.start_ns, s.source) for s in entries]

    assert keys(bounded.to_list()) == keys(full[-256:])


def test_marks_from_two_hosts_at_one_instant_keep_execution_order():
    # The chaos digest folds marks in record order; hosts must interleave
    # as they ran, not grouped or sorted by source.
    cluster = build_cluster(trace=True)
    lib0, lib1 = cluster.lib(0), cluster.lib(1)
    lib1.driver.trace(lib1.ep, "b1")
    lib0.driver.trace(lib0.ep, "a1")
    lib1.driver.trace(lib1.ep, "b2")
    marks = cluster.spans.marks()
    assert [(m.start_ns, m.source, m.name) for m in marks] == [
        (0, f"{lib1.board}/ep0", "b1"),
        (0, f"{lib0.board}/ep0", "a1"),
        (0, f"{lib1.board}/ep0", "b2"),
    ]


def test_span_ids_are_unique_across_a_clusters_drivers():
    cluster = traced_transfer(PinningMode.OVERLAP, None)
    assert all(node.driver.spans is cluster.spans for node in cluster.nodes)
    assert len({s.source for s in cluster.spans.spans()}) == 2
    ids = [s.id for s in cluster.spans.to_list()]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("trace", [False, True])
def test_trace_switch_gates_recording_and_bh_fusion(trace):
    cluster = build_cluster(trace=trace)
    transfer(cluster, 1 * MIB)
    assert (len(cluster.spans) > 0) is trace
    driver = cluster.nodes[1].driver
    rndv = Rndv(src_board=cluster.lib(0).board, src_endpoint=0,
                dst_endpoint=0)
    frame = EthernetFrame(src=rndv.src_board, dst=driver.board,
                          ethertype=ETH_P_OMX, payload=rndv,
                          payload_bytes=rndv.wire_payload_bytes)
    # Marks record pre-charge timestamps, so tracing turns fusion off.
    assert driver._rx_fusable(frame) is not trace


def test_disabled_registry_keeps_protocol_counters_exact():
    registry = MetricRegistry(enabled=False)
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE), metrics=registry,
    )
    transfer(cluster, 1 * MIB)
    # The local shim dict stays authoritative even with a no-op registry.
    assert cluster.nodes[0].driver.counters["send_large_done"] == 1
    assert registry.snapshot()["metrics"] == {}
