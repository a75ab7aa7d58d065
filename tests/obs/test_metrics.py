"""Registry, labels, counter/gauge semantics, histogram bucketing and
percentiles, null metrics, merge, and per-owner counter cells."""

import pytest

from repro.obs.metrics import (
    Counters,
    MetricRegistry,
    _bucket_bound,
    current_registry,
    resolve_registry,
    use_registry,
)


# -- bucketing ----------------------------------------------------------------

def test_log2_bucket_bounds():
    assert _bucket_bound(0) == 1
    assert _bucket_bound(1) == 1
    assert _bucket_bound(2) == 2
    assert _bucket_bound(3) == 4
    assert _bucket_bound(4) == 4
    assert _bucket_bound(5) == 8
    assert _bucket_bound(1024) == 1024
    assert _bucket_bound(1025) == 2048


def test_histogram_buckets_cover_observations():
    reg = MetricRegistry()
    h = reg.histogram("lat")
    for v in [1, 2, 3, 100, 5000]:
        h.observe(v)
    sample = h._default.sample()
    assert sample["count"] == 5
    assert sample["sum"] == 5106
    assert sum(sample["buckets"].values()) == 5
    assert sample["buckets"]["1"] == 1  # the observation of 1
    assert sample["buckets"]["2"] == 1
    assert sample["buckets"]["4"] == 1  # 3 lands in (2, 4]
    assert sample["buckets"]["128"] == 1  # 100 lands in (64, 128]
    assert sample["buckets"]["8192"] == 1  # 5000 lands in (4096, 8192]


# -- percentiles --------------------------------------------------------------

def test_percentiles_exact_while_samples_retained():
    reg = MetricRegistry()
    h = reg.histogram("lat", sample_capacity=100)
    for v in range(1, 101):  # 1..100
        h.observe(v)
    assert h.percentile(50) == 50.0
    assert h.percentile(95) == 95.0
    assert h.percentile(99) == 99.0
    assert h.percentile(100) == 100.0
    assert h.percentile(0) == 1.0


def test_percentiles_from_buckets_after_eviction():
    reg = MetricRegistry()
    h = reg.histogram("lat", sample_capacity=4)  # forces eviction
    for v in range(1, 101):
        h.observe(v)
    # Bucket interpolation: approximate but ordered and clamped to [min, max].
    p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
    assert 1 <= p50 <= p95 <= p99 <= 100
    assert 32 <= p50 <= 64  # rank 50 falls in the (32, 64] bucket


def test_percentile_summary_shape_and_empty_safety():
    reg = MetricRegistry()
    h = reg.histogram("lat")
    empty = h.summary()
    assert empty == {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                     "p50": 0.0, "p95": 0.0, "p99": 0.0}
    h.observe(10)
    s = h.summary()
    assert s["n"] == 1 and s["min"] == 10.0 and s["max"] == 10.0
    with pytest.raises(ValueError):
        h.percentile(101)


# -- families and labels ------------------------------------------------------

def test_counter_labels_are_independent_children():
    reg = MetricRegistry()
    fam = reg.counter("rx", labelnames=("nic",))
    fam.labels(nic="a").inc(3)
    fam.labels(nic="b").inc(4)
    assert fam.labels(nic="a").value == 3
    assert fam.value == 7  # family value sums children
    labels = {tuple(l.items()) for l, _ in fam.children()}
    assert labels == {(("nic", "a"),), (("nic", "b"),)}


def test_wrong_label_names_raise():
    reg = MetricRegistry()
    fam = reg.counter("rx", labelnames=("nic",))
    with pytest.raises(ValueError):
        fam.labels(host="a")
    with pytest.raises(ValueError):
        fam.inc()  # labeled family has no anonymous child


def test_counters_reject_negative_and_gauges_move_both_ways():
    reg = MetricRegistry()
    c = reg.counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("g")
    g.inc(5)
    g.dec(2)
    assert g.value == 3
    g.set(10)
    assert g.value == 10


def test_registry_deduplicates_and_rejects_mismatches():
    reg = MetricRegistry()
    a = reg.counter("x", labelnames=("h",))
    b = reg.counter("x", labelnames=("h",))
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("x")  # kind mismatch
    with pytest.raises(ValueError):
        reg.counter("x", labelnames=("other",))  # labelname mismatch
    assert "x" in reg
    assert reg.get("missing") is None


def test_disabled_registry_hands_out_noop_metrics():
    reg = MetricRegistry(enabled=False)
    c = reg.counter("c")
    h = reg.histogram("h", labelnames=("x",))
    c.inc()
    h.labels(x="1").observe(5)
    assert c.value == 0
    assert h.percentile(99) == 0.0
    assert reg.snapshot()["metrics"] == {}


# -- merge --------------------------------------------------------------------

def test_merge_sums_counters_and_merges_histograms():
    a, b = MetricRegistry(), MetricRegistry()
    for reg, amount in ((a, 2), (b, 5)):
        reg.counter("c", labelnames=("h",)).labels(h="x").inc(amount)
        hist = reg.histogram("lat")
        hist.observe(amount)
        reg.gauge("g").set(amount)
    a.merge(b)
    assert a.get("c").labels(h="x").value == 7
    merged = a.get("lat")
    assert merged.count == 2
    assert merged._default.min == 2 and merged._default.max == 5
    assert a.get("g").value == 5  # gauge takes the merged-in value


# -- active-registry plumbing -------------------------------------------------

def test_use_registry_installs_and_restores_default():
    assert current_registry() is None
    mine = MetricRegistry()
    with use_registry(mine):
        assert current_registry() is mine
        assert resolve_registry(None) is mine
        explicit = MetricRegistry()
        assert resolve_registry(explicit) is explicit
    assert current_registry() is None
    # With nothing installed, each resolve gives a fresh private registry.
    assert resolve_registry(None) is not resolve_registry(None)


# -- per-owner counter cells ---------------------------------------------------

def test_counters_basics():
    c = Counters()  # no registry: unattached cells
    c.incr("pkt")
    c.incr("pkt", 4)
    c.incr("miss")
    assert c["pkt"] == 5
    assert c["miss"] == 1
    assert c["absent"] == 0
    assert c.ratio("miss", "pkt") == 1 / 5
    assert c.ratio("miss", "absent") == 0.0
    assert c.as_dict() == {"pkt": 5, "miss": 1}


def test_counters_register_a_family_on_first_incr():
    reg = MetricRegistry()
    counters = Counters(reg, prefix="omx_", host="host0")
    assert "omx_overlap_miss_recv" not in reg
    counters.incr("overlap_miss_recv")
    counters.incr("overlap_miss_recv", 2)
    counters.incr("pull_bytes", 4096)
    assert counters.as_dict() == {"overlap_miss_recv": 3, "pull_bytes": 4096}
    family = reg.get("omx_overlap_miss_recv")
    assert family.labelnames == ("host",) and family.help == ""
    assert family.labels(host="host0").value == 3
    assert reg.get("omx_pull_bytes").labels(host="host0").value == 4096


def test_two_owners_with_equal_labels_stay_exact_and_share_one_sample():
    reg = MetricRegistry()
    family = reg.counter("nic_rx_frames", "frames", labelnames=("nic",))
    a, b = family.cell(nic="n0"), family.cell(nic="n0")
    other = family.cell(nic="n1")
    a.value += 1
    b.value += 2
    other.value += 5
    family.labels(nic="n0").inc(10)  # the label set's own cell
    assert (a.value, b.value, other.value) == (1, 2, 5)
    samples = reg.snapshot()["metrics"]["nic_rx_frames"]["samples"]
    assert samples == [{"labels": {"nic": "n0"}, "value": 13},
                       {"labels": {"nic": "n1"}, "value": 5}]
    assert family.value == 18
    x, y = Counters(reg, host="h"), Counters(reg, host="h")
    x.incr("sent", 1)
    y.incr("sent", 2)
    assert x["sent"] == 1 and y["sent"] == 2
    assert reg.get("sent").labels(host="h").value == 3


def test_merge_sums_cells():
    worker = MetricRegistry()
    family = worker.counter("c", "help", labelnames=("k",))
    family.cell(k="a").value += 2
    family.cell(k="a").value += 3
    family.cell(k="b").value += 1
    session = MetricRegistry()
    session.counter("c", "help", labelnames=("k",)).cell(k="b").value += 10
    session.merge(worker)
    session.merge(worker)
    merged = session.get("c")
    assert [(labels, child.value) for labels, child in merged.children()] == [
        ({"k": "b"}, 12), ({"k": "a"}, 10)]


def test_disabled_registry_still_counts_per_owner():
    reg = MetricRegistry(enabled=False)
    a = reg.counter("c", labelnames=("k",)).cell(k="x")
    b = reg.counter("c", labelnames=("k",)).cell(k="x")
    a.value += 2
    b.value += 1
    assert (a.value, b.value) == (2, 1)
    counters = Counters(reg, prefix="omx_", host="h")
    counters.incr("sent", 4)
    assert counters["sent"] == 4
    assert list(reg) == []


def test_negative_incr_raises():
    counters = Counters(MetricRegistry(), host="h")
    counters.incr("x", 2)
    with pytest.raises(ValueError, match="only go up"):
        counters.incr("x", -1)
    assert counters["x"] == 2


# -- gauge merge policy -------------------------------------------------------

def test_gauge_merge_policy_sum_and_max():
    """Regression: multi-environment merges used to overwrite every gauge.

    With N worker registries each carrying per-engine gauges (e.g.
    ``sim_wheel_pending``), folding them into the
    ambient registry kept only the *last* worker's value.  Per-metric
    merge policies fix that: ``sum`` aggregates, ``max`` keeps the
    high-water mark, and the default ``last`` stays backward compatible.
    """
    ambient = MetricRegistry()
    for value in (5.0, 9.0, 3.0):
        worker = MetricRegistry()
        worker.gauge("g_sum", "per-worker load", merge="sum").set(value)
        worker.gauge("g_max", "per-worker peak", merge="max").set(value)
        worker.gauge("g_last", "plain gauge").set(value)
        ambient.merge(worker)
    assert ambient.get("g_sum").value == 17.0
    assert ambient.get("g_max").value == 9.0
    assert ambient.get("g_last").value == 3.0  # default: last wins


def test_gauge_merge_max_handles_negative_values():
    ambient = MetricRegistry()
    for value in (-5.0, -2.0, -9.0):
        worker = MetricRegistry()
        worker.gauge("depth", "water table", merge="max").set(value)
        ambient.merge(worker)
    # A freshly created target child (value 0.0) must not beat the real
    # negative samples.
    assert ambient.get("depth").value == -2.0


def test_gauge_merge_policy_applies_per_label_child():
    ambient = MetricRegistry()
    for host, value in (("a", 4.0), ("b", 6.0), ("a", 3.0)):
        worker = MetricRegistry()
        worker.gauge("busy", "per-host busy", labelnames=("host",),
                     merge="sum").labels(host=host).set(value)
        ambient.merge(worker)
    assert ambient.get("busy").labels(host="a").value == 7.0
    assert ambient.get("busy").labels(host="b").value == 6.0


def test_gauge_merge_mode_conflict_is_an_error():
    reg = MetricRegistry()
    reg.gauge("g", "gauge", merge="sum")
    with pytest.raises(ValueError):
        reg.gauge("g", "gauge", merge="max")
    # Re-fetching without a policy keeps the declared one.
    assert reg.gauge("g", "gauge").merge_mode == "sum"


def test_gauge_rejects_unknown_merge_mode():
    reg = MetricRegistry()
    with pytest.raises(ValueError):
        reg.gauge("g", "gauge", merge="median")


def test_engine_gauges_sum_across_merged_environments():
    """The concrete bug: two engines' run() metrics fold into one registry."""
    from repro.sim import Environment

    ambient = MetricRegistry()
    pendings = []
    for delay in (100, 200):
        worker = MetricRegistry()
        env = Environment()
        env.metrics = worker
        env.timeout(delay)
        env.timeout(delay + 50_000)  # left pending past the deadline
        env.run(until=delay)
        pendings.append(worker.get("sim_wheel_pending").value)
        ambient.merge(worker)
    assert ambient.get("sim_wheel_pending").value == sum(pendings)


# -- histogram merge across shard workers -------------------------------------

def _observe_all(reg, samples, capacity=0):
    hist = reg.histogram("omx_pin_wait_ns", labelnames=("host",),
                         sample_capacity=capacity)
    for host, value in samples:
        hist.labels(host=host).observe(value)
    return hist


def test_histogram_merge_matches_single_registry_concatenation():
    """The PDES coordinator folds per-shard registries with merge(); the
    result must be indistinguishable from one registry observing every
    shard's samples directly: counts and sums add, buckets add, and
    p50/p95/p99 agree exactly."""
    per_shard = [
        [("host0", 120), ("host0", 3_400), ("host1", 87_000)],
        [("host2", 512), ("host2", 512), ("host3", 9)],
        [("host4", 1_000_000), ("host0", 64)],
    ]
    merged = MetricRegistry()
    for samples in per_shard:
        worker = MetricRegistry()
        _observe_all(worker, samples, capacity=64)
        merged.merge(worker)
    reference = MetricRegistry()
    combined = [s for samples in per_shard for s in samples]
    _observe_all(reference, combined, capacity=64)

    got, want = merged.get("omx_pin_wait_ns"), reference.get("omx_pin_wait_ns")
    assert got.count == want.count == len(combined)
    for labels, ref_child in want.children():
        child = got.labels(**labels)
        assert child.count == ref_child.count
        assert child.sum == ref_child.sum
        assert child.buckets == ref_child.buckets
        for p in (50, 95, 99):
            assert child.percentile(p) == ref_child.percentile(p)


def test_histogram_merge_without_raw_samples_still_adds_buckets():
    """Bucket-only histograms (sample_capacity=0) merge bucket-wise and the
    interpolated percentiles match the single-registry estimate."""
    a, b = MetricRegistry(), MetricRegistry()
    _observe_all(a, [("host0", v) for v in (10, 100, 1_000)])
    _observe_all(b, [("host0", v) for v in (20, 200, 2_000, 20_000)])
    a.merge(b)
    ref = MetricRegistry()
    _observe_all(ref, [("host0", v)
                       for v in (10, 100, 1_000, 20, 200, 2_000, 20_000)])
    child = a.get("omx_pin_wait_ns").labels(host="host0")
    want = ref.get("omx_pin_wait_ns").labels(host="host0")
    assert child.count == want.count == 7
    assert child.sum == want.sum
    assert child.buckets == want.buckets
    assert child.min == want.min and child.max == want.max
    for p in (50, 95, 99):
        assert child.percentile(p) == want.percentile(p)


def test_histogram_merge_is_order_independent_across_shards():
    """Folding shard registries in any order yields identical snapshots —
    the coordinator's deterministic-merge contract."""
    shard_samples = [[("host0", 5), ("host1", 50)],
                     [("host0", 500)],
                     [("host1", 5_000), ("host1", 7)]]
    registries = []
    for order in ([0, 1, 2], [2, 0, 1]):
        merged = MetricRegistry()
        for i in order:
            worker = MetricRegistry()
            _observe_all(worker, shard_samples[i], capacity=16)
            merged.merge(worker)
        registries.append(merged)

    def by_label(reg):
        # Child listing order tracks insertion; the values must not.
        return {tuple(labels.items()):
                (c.count, c.sum, dict(c.buckets),
                 c.percentile(50), c.percentile(95), c.percentile(99))
                for labels, c in reg.get("omx_pin_wait_ns").children()}

    assert by_label(registries[0]) == by_label(registries[1])
