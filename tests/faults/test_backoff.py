"""Exponential retransmission backoff: correctness of the delay schedule
and the headline demonstration — under a bursty outage, backoff sends far
fewer redundant retransmissions than the paper's fixed timer, at nearly the
same completion time (the outage dominates)."""

from repro.cluster import build_cluster
from repro.faults import Blackout, FrameMatch
from repro.openmx import OpenMXConfig, PinningMode
from repro.openmx.config import (
    RESEND_BACKOFF_CAP,
    RESEND_BACKOFF_FACTOR,
    RESEND_JITTER_FRAC,
)
from repro.util.units import MIB, MILLISECOND

OUTAGE_NS = 30 * MILLISECOND


def test_resend_delay_grows_and_caps():
    cfg = OpenMXConfig(resend_timeout_ns=1 * MILLISECOND)
    bases = [min(int(MILLISECOND * RESEND_BACKOFF_FACTOR ** r),
                 RESEND_BACKOFF_CAP * MILLISECOND) for r in range(6)]
    # 1, 2, 4 ms, then capped at 8x the base timeout.
    assert bases == [1 * MILLISECOND, 2 * MILLISECOND, 4 * MILLISECOND,
                     8 * MILLISECOND, 8 * MILLISECOND, 8 * MILLISECOND]
    for rounds, base in enumerate(bases):
        # The jitter only ever adds to the backed-off delay.
        assert base <= cfg.resend_delay_ns(rounds) <= \
            base * (1 + RESEND_JITTER_FRAC)


def test_resend_delay_jitter_bounded_and_deterministic():
    cfg = OpenMXConfig(resend_timeout_ns=1 * MILLISECOND)
    for rounds in range(4):
        base = min(1 * MILLISECOND * 2 ** rounds,
                   RESEND_BACKOFF_CAP * MILLISECOND)
        for key in range(20):
            d = cfg.resend_delay_ns(rounds, key=key)
            assert abs(d - base) <= RESEND_JITTER_FRAC * base
            # Pure function of (rounds, key): no hidden RNG state.
            assert d == cfg.resend_delay_ns(rounds, key=key)
    # Different keys decorrelate the timers.
    assert len({cfg.resend_delay_ns(1, key=k) for k in range(50)}) > 10


def _outage_run():
    """1 MiB pull transfer through a 30 ms link outage starting mid-flight."""
    cfg = OpenMXConfig(pinning_mode=PinningMode.CACHE,
                       resend_timeout_ns=2 * MILLISECOND,
                       max_resend_rounds=40)
    cluster = build_cluster(config=cfg)
    outage = Blackout([(200_000, OUTAGE_NS)],
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
    rounds = cluster.nodes[1].driver.counters["pull_timeout_resend"]
    return cfg, rounds, env.now


def test_backoff_beats_fixed_timer_during_outage():
    cfg, rounds, end_ns = _outage_run()
    # A fixed 2 ms timer would fire 15 times into the 30 ms dead link;
    # backoff stretches its rounds across the outage instead.
    assert rounds < OUTAGE_NS // cfg.resend_timeout_ns
    # ...without giving up more than one capped round of latency.
    cap_ns = RESEND_BACKOFF_CAP * cfg.resend_timeout_ns
    assert end_ns < 200_000 + OUTAGE_NS + cap_ns * (1 + RESEND_JITTER_FRAC)
