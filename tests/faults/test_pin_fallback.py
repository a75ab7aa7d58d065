"""Graceful degradation under pin failure.

Transient ``get_user_pages`` failures are retried with backoff; persistent
failure falls back to copy-through statically-pinned bounce buffers —
rendezvous transfers complete (slower) instead of aborting.  A send aborts
only when its buffer is gone, so there is nothing left to copy."""

import pytest

from repro.cluster import build_cluster
from repro.faults import PinFaults
from repro.openmx import OpenMXConfig, PinningMode
from repro.openmx.config import PIN_RETRY_MAX
from repro.util.units import KIB, MIB


def run_transfer(cluster, nbytes, tag=1):
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    data = bytes((i * 37) % 256 for i in range(nbytes))
    sp.write(sbuf, data)
    reqs = {}

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, tag)
        reqs["send"] = req
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, nbytes, tag)
        reqs["recv"] = req
        yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    delivered = rp.read(rbuf, nbytes)
    return reqs["send"], reqs["recv"], data, delivered


def attach_pin_faults(cluster, node_indices, **kw):
    hooks = []
    for i in node_indices:
        hook = PinFaults(seed=100 + i, **kw)
        cluster.nodes[i].kernel.pin.fault_hook = hook
        hooks.append(hook)
    return hooks


@pytest.mark.parametrize("mode", [PinningMode.PIN_PER_COMM,
                                  PinningMode.CACHE,
                                  PinningMode.OVERLAP])
def test_persistent_pin_failure_degrades_to_copy_through(mode):
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode))
    attach_pin_faults(cluster, (0, 1), fail_prob=1.0, max_failures=None)
    send, recv, data, delivered = run_transfer(cluster, 1 * MIB)
    # Both sides completed despite never pinning a page of the buffers.
    assert send.status == "ok" and recv.status == "ok"
    assert delivered == data
    c0 = cluster.nodes[0].driver.counters
    c1 = cluster.nodes[1].driver.counters
    assert c0["pin_fallback_send"] == 1
    assert c0["pull_served_fallback"] >= 1  # chunks served from the bounce
    assert c1["pin_fallback_recv"] == 1


def test_sender_only_pin_failure_serves_from_bounce():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    attach_pin_faults(cluster, (0,), fail_prob=1.0, max_failures=None)
    send, recv, data, delivered = run_transfer(cluster, 512 * KIB)
    assert send.status == "ok" and recv.status == "ok"
    assert delivered == data
    c0 = cluster.nodes[0].driver.counters
    c1 = cluster.nodes[1].driver.counters
    assert c0["pin_fallback_send"] == 1
    assert c1["pin_fallback_recv"] == 0  # receiver pinned normally


def test_transient_pin_failure_recovers_by_retry_without_fallback():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    hooks = attach_pin_faults(cluster, (0,), fail_prob=1.0, max_failures=1)
    send, recv, data, delivered = run_transfer(cluster, 512 * KIB)
    assert send.status == "ok" and recv.status == "ok"
    assert delivered == data
    c0 = cluster.nodes[0].driver.counters
    assert hooks[0].injected.value == 1
    assert c0["pin_retry"] >= 1
    assert c0["pin_fallback_send"] == 0  # the retry pinned for real


def _free_send_buffer_under_failing_pins(free_at_ns):
    """A 512 KiB send whose pins always fail; the application frees the
    send buffer ``free_at_ns`` in.  Returns the send and the sender's
    counters."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    attach_pin_faults(cluster, (0, 1), fail_prob=1.0, max_failures=None)
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    nbytes = 512 * KIB
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, bytes(nbytes))
    reqs = {}

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, 1)
        reqs["send"] = req
        yield from s.wait(req)

    def freer():
        yield env.timeout(free_at_ns)
        sp.free(sbuf)

    def receiver():
        # The send aborts before any rendezvous goes out, so this recv can
        # never match; post it without waiting and cancel it afterwards.
        reqs["recv"] = yield from r.irecv(rbuf, nbytes, 1)

    env.run(until=env.all_of([env.process(sender()), env.process(freer()),
                              env.process(receiver())]))
    assert r.cancel(reqs["recv"])
    assert reqs["recv"].status == "cancelled"
    return reqs["send"], cluster.nodes[0].driver.counters


def test_fallback_disabled_aborts_instead():
    # The buffer is freed between the pin retries, which leaves the
    # copy-through fallback nothing to copy: the send aborts instead.
    send, c0 = _free_send_buffer_under_failing_pins(150_000)
    assert c0["pin_retry"] >= 1
    assert send.status == "error"
    assert c0["send_aborted"] == 1
    assert c0["pin_fallback_send"] == 0


def test_send_buffer_freed_during_fallback_copy_aborts():
    # Freed while the fallback's copy is charged: the snapshot read finds
    # the pages gone and the send aborts instead of raising BadAddress.
    send, c0 = _free_send_buffer_under_failing_pins(400_000)
    assert c0["pin_retry"] == PIN_RETRY_MAX
    assert send.status == "error"
    assert c0["send_aborted"] == 1
    assert c0["pin_fallback_send"] == 0


def test_slow_pin_jitter_only_slows_down():
    baseline = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    _, _, data, delivered = run_transfer(baseline, 1 * MIB)
    assert delivered == data
    t_base = baseline.env.now

    slow = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.PIN_PER_COMM))
    attach_pin_faults(slow, (0, 1), delay_ns=200_000, jitter_ns=100_000)
    send, recv, data, delivered = run_transfer(slow, 1 * MIB)
    assert send.status == "ok" and recv.status == "ok"
    assert delivered == data
    assert slow.env.now > t_base  # jitter showed up as latency, not failure
