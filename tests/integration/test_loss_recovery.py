"""Loss injection: the pull protocol and eager reliability must recover
from dropped frames with byte-exact delivery (drops are also the overlap
miss recovery mechanism, so this machinery is load-bearing).

Each case also pins its exact recovery counts — ``pull_rerequest``,
``pull_reply_duplicate`` and ``pull_timeout_resend`` at the receiver, and
the final simulated time — so a change to how losses are *detected* that
alters which chunks are re-requested, or when, fails here even if the
bytes still arrive.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import build_cluster
from repro.faults import DropNth, FrameMatch, PeriodicDrop
from repro.faults.chaos import run_chaos
from repro.kernel.context import AcquiringContext
from repro.openmx import OpenMXConfig, PinningMode
from repro.openmx.driver import _PullState
from repro.util.units import KIB, MIB, MILLISECOND

GOLDENS = Path(__file__).resolve().parents[2] / "benchmarks/e2e/goldens.json"


def run_transfer(cluster, nbytes, tag=1):
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    data = bytes((i * 37) % 256 for i in range(nbytes))
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


def recovery_counts(cluster):
    """(pull_rerequest, pull_reply_duplicate, pull_timeout_resend, now)."""
    counters = cluster.nodes[1].driver.counters
    return (counters["pull_rerequest"], counters["pull_reply_duplicate"],
            counters["pull_timeout_resend"], cluster.env.now)


OPTIMISTIC_COUNTS = {
    frozenset({3}): (1, 1, 0, 1_985_358),
    frozenset({1, 2}): (1, 2, 0, 1_985_358),
    frozenset({5, 6, 7}): (1, 3, 0, 2_000_358),
}


@pytest.mark.parametrize("drops", [{3}, {1, 2}, {5, 6, 7}])
def test_pull_reply_loss_recovered_optimistically(drops):
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    model = DropNth(drops, match=FrameMatch(kinds=("PullReply",)))
    cluster.fabric.add_fault_injector(model)
    run_transfer(cluster, 2 * MIB)
    counters = cluster.nodes[1].driver.counters
    assert counters["pull_rerequest"] >= 1
    assert model.injected.value == len(drops)
    # Recovery happened without burning the 1 s retransmission timeout.
    assert cluster.env.now < 500 * MILLISECOND
    assert recovery_counts(cluster) == OPTIMISTIC_COUNTS[frozenset(drops)]


def test_scattered_loss_in_long_pull_recovered_optimistically():
    """An 8 MiB pull (1,024 chunks, 128 blocks) losing replies in several
    blocks: gaps sit above the received prefix while later chunks keep
    arriving, so detection must look past the prefix, not only at it."""
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    drops = {2, 9, 10, 17, 130, 131, 133, 400, 407, 1000, 1023}
    model = DropNth(drops, match=FrameMatch(kinds=("PullReply",)))
    cluster.fabric.add_fault_injector(model)
    run_transfer(cluster, 8 * MIB)
    assert model.injected.value == len(drops)
    counters = cluster.nodes[1].driver.counters
    assert counters["pull_rerequest"] >= 1
    assert counters["pull_timeout_resend"] == 0
    assert recovery_counts(cluster) == (8, 9, 0, 7_839_422)


def test_adversarial_periodic_loss_still_delivers():
    """Every third reply dropped — including retransmissions of the same
    chunk.  Timeout-based recovery is legitimate here; delivery must still
    be byte-exact."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE,
                            resend_timeout_ns=5 * MILLISECOND)
    )
    cluster.fabric.add_fault_injector(
        PeriodicDrop(3, phase=1, match=FrameMatch(kinds=("PullReply",)))
    )
    run_transfer(cluster, 2 * MIB)
    assert cluster.nodes[1].driver.counters["pull_rerequest"] >= 1
    assert recovery_counts(cluster) == (88, 31, 0, 3_000_358)


def test_pull_request_loss_recovered():
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=PinningMode.CACHE))
    cluster.fabric.add_fault_injector(
        DropNth({1}, match=FrameMatch(kinds=("PullRequest",)))
    )
    run_transfer(cluster, 1 * MIB)
    assert recovery_counts(cluster) == (1, 8, 0, 1_048_014)


def test_tail_loss_recovered_by_timeout():
    """Dropping the final replies leaves no later packet to reveal the gap;
    only the fallback timer can recover (hence the paper's 1 s timeout)."""
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE,
                            resend_timeout_ns=5 * MILLISECOND)
    )
    nbytes = 256 * KIB  # 32 chunks
    cluster.fabric.add_fault_injector(
        DropNth({31, 32}, match=FrameMatch(kinds=("PullReply",)))
    )
    run_transfer(cluster, nbytes)
    assert cluster.nodes[1].driver.counters["pull_timeout_resend"] >= 1
    assert recovery_counts(cluster) == (1, 1, 1, 10_690_406)


def test_eager_fragment_loss_recovered_by_retransmit():
    cluster = build_cluster(
        config=OpenMXConfig(resend_timeout_ns=2 * MILLISECOND)
    )
    cluster.fabric.add_fault_injector(
        DropNth({2}, match=FrameMatch(kinds=("EagerFrag",)))
    )
    run_transfer(cluster, 24 * KIB)  # 3 eager fragments
    assert cluster.nodes[0].driver.counters["eager_retransmit"] >= 1
    assert recovery_counts(cluster) == (0, 0, 0, 2_190_900)


def test_eager_duplicate_after_liback_loss_is_deduplicated():
    cluster = build_cluster(
        config=OpenMXConfig(resend_timeout_ns=2 * MILLISECOND)
    )
    cluster.fabric.add_fault_injector(
        DropNth({1}, match=FrameMatch(kinds=("Liback",)))
    )
    run_transfer(cluster, 8 * KIB)
    # The eager send completed locally before the liback was due; keep the
    # simulation running so the retransmission and re-ack play out.
    cluster.env.run(until=cluster.env.now + 10 * MILLISECOND)
    counters = cluster.nodes[1].driver.counters
    assert counters["eager_duplicate"] >= 1
    assert counters["eager_received"] == 1  # delivered exactly once
    assert recovery_counts(cluster) == (0, 0, 0, 10_032_825)


def test_repeated_heavy_loss_still_delivers():
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP_CACHE,
                            resend_timeout_ns=5 * MILLISECOND)
    )
    # Drop every 7th data frame for the whole run.
    cluster.fabric.add_fault_injector(
        PeriodicDrop(7, match=FrameMatch(kinds=("PullReply",)))
    )
    run_transfer(cluster, 4 * MIB)
    assert recovery_counts(cluster) == (80, 64, 0, 4_469_383)


def test_receive_side_overlap_misses_recovered():
    """A frame flood slows the receiver's pinning (the bottom half and the
    application share core 0), so overlapped replies outrun the pinned
    watermark and are dropped on arrival.  Those chunks sit in the pull's
    ``missed`` set and must be re-requested once the pin catches up.
    Two replies are also lost on the wire."""
    cluster = build_cluster(
        nhosts=3,
        config=OpenMXConfig(pinning_mode=PinningMode.OVERLAP,
                            resend_timeout_ns=20 * MILLISECOND),
        first_app_core=0,
    )
    cluster.fabric.add_fault_injector(
        DropNth({1, 3}, match=FrameMatch(kinds=("PullReply",)))
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
    run_transfer(cluster, 1 * MIB)
    assert cluster.nodes[1].driver.counters["overlap_miss_recv"] > 0
    assert recovery_counts(cluster) == (4, 16, 0, 7_986_224)


def test_missed_set_merge_in_chaos_soak_matches_golden(monkeypatch):
    """``_rx_pull_reply`` merges the receiver's own overlap misses with the
    chunks a reply proves lost.  Chaos seed 3 at 12 steps runs that merge
    twice, and both times the reply proves chunks lost; its digest must
    still match the e2e golden (read, never written)."""
    merges = []
    evidently_lost = _PullState.evidently_lost

    def spy(state, chunk):
        lost = evidently_lost(state, chunk)
        if state.missed:  # the merge runs right after this call
            merges.append(lost)
        return lost

    monkeypatch.setattr(_PullState, "evidently_lost", spy)
    result = run_chaos(3, steps=12)
    assert len(merges) == 2
    assert all(merges)
    golden = json.loads(GOLDENS.read_text())["chaos_soak"]["chaos/3"][0]
    assert result.digest.startswith(golden)
