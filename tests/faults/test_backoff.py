"""Exponential retransmission backoff: correctness of the delay schedule
and the headline demonstration — under a bursty outage, backoff sends far
fewer redundant retransmissions than the paper's fixed timer, at nearly the
same completion time (the outage dominates)."""

from repro.cluster import build_cluster
from repro.faults import Blackout, FrameMatch
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB, MILLISECOND


def test_resend_delay_grows_and_caps():
    cfg = OpenMXConfig(resend_timeout_ns=1 * MILLISECOND,
                       resend_backoff_factor=2.0,
                       resend_backoff_cap_ns=4 * MILLISECOND,
                       resend_jitter_frac=0.0)
    delays = [cfg.resend_delay_ns(r) for r in range(6)]
    assert delays[0] == 1 * MILLISECOND
    assert delays[1] == 2 * MILLISECOND
    assert delays[2] == 4 * MILLISECOND
    assert delays[3:] == [4 * MILLISECOND] * 3  # capped


def test_resend_delay_factor_one_is_fixed_timer():
    cfg = OpenMXConfig(resend_timeout_ns=1 * MILLISECOND,
                       resend_backoff_factor=1.0,
                       resend_jitter_frac=0.0)
    assert [cfg.resend_delay_ns(r) for r in range(5)] == \
        [1 * MILLISECOND] * 5


def test_resend_delay_jitter_bounded_and_deterministic():
    cfg = OpenMXConfig(resend_timeout_ns=1 * MILLISECOND,
                       resend_backoff_factor=2.0,
                       resend_jitter_frac=0.2)
    for rounds in range(4):
        base = min(1 * MILLISECOND * 2 ** rounds,
                   cfg.resend_backoff_cap_ns or 8 * MILLISECOND)
        for key in range(20):
            d = cfg.resend_delay_ns(rounds, key=key)
            assert abs(d - base) <= 0.2 * base
            # Pure function of (rounds, key): no hidden RNG state.
            assert d == cfg.resend_delay_ns(rounds, key=key)
    # Different keys decorrelate the timers.
    assert len({cfg.resend_delay_ns(1, key=k) for k in range(50)}) > 10


def _outage_run(backoff_factor):
    """1 MiB pull transfer through a 30 ms link outage starting mid-flight."""
    cfg = OpenMXConfig(pinning_mode=PinningMode.CACHE,
                       resend_timeout_ns=2 * MILLISECOND,
                       resend_backoff_factor=backoff_factor,
                       resend_backoff_cap_ns=64 * MILLISECOND,
                       resend_jitter_frac=0.0,
                       max_resend_rounds=40)
    cluster = build_cluster(config=cfg)
    outage = Blackout([(200_000, 30 * MILLISECOND)],
                      match=FrameMatch(kinds=("PullRequest", "PullReply")))
    cluster.fabric.add_fault_injector(outage)
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    n = 1 * MIB
    sbuf, rbuf = sp.malloc(n), rp.malloc(n)
    data = bytes((i * 37) % 256 for i in range(n))
    sp.write(sbuf, data)

    def sender():
        req = yield from s.isend(sbuf, n, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, n, 1)
        yield from r.wait(req)

    env.run(until=env.all_of([env.process(sender()), env.process(receiver())]))
    assert rp.read(rbuf, n) == data
    wasted = outage.injected.value
    rounds = cluster.nodes[1].driver.counters["pull_timeout_resend"]
    return wasted, rounds, env.now


def test_backoff_beats_fixed_timer_during_outage():
    fixed_wasted, fixed_rounds, fixed_t = _outage_run(1.0)
    exp_wasted, exp_rounds, exp_t = _outage_run(2.0)
    # The fixed timer keeps retransmitting into the dead link; backoff
    # stretches its rounds across the outage instead.
    assert exp_rounds < fixed_rounds
    assert exp_wasted < fixed_wasted
    # ...without giving up more than one extra backed-off round of latency.
    assert exp_t < fixed_t + 16 * MILLISECOND
