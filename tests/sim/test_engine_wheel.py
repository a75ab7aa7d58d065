"""Timer-wheel edge cases: level boundaries, cascades, resync, debug checks.

The wheel's contract is that it is *indistinguishable* from the old global
heap: same fire times, same tie-breaking (creation order), same clock
positions.  These tests pin the places where a wheel could diverge — same
expiry reached from different levels, deadline jumps that skip cascades,
overflow-heap promotion, zero-delay fast path — plus the debug-mode
invariant checks.
"""

import pytest

from repro.sim import Environment, SimulationError


def test_same_expiry_across_levels_fires_in_creation_order():
    # `early` (t=300) is created at now=0 so it parks in level 1; `late`
    # (also t=300) is created at now=290 so it inserts straight into level
    # 0 — *after* the cascade has already moved `early` into the same
    # slot.  Creation order must win the tie.
    env = Environment()
    order = []
    early = env.timeout(300)
    early.callbacks.append(lambda ev: order.append("early"))
    env.timeout(290).callbacks.append(lambda ev: order.append("advance"))

    def late_adder():
        yield env.timeout(290)
        assert env.now == 290
        t = env.timeout(10)  # expiry 300, same as `early`
        t.callbacks.append(lambda ev: order.append("late"))

    env.process(late_adder())
    env.run()
    assert order == ["advance", "early", "late"]
    assert env.now == 300


def test_level_boundary_delays_fire_at_exact_times():
    # One timer on each side of every level boundary, plus the overflow
    # heap. All must fire at their exact expiry regardless of bucketing.
    env = Environment()
    fired = []
    delays = [1, 255, 256, 257, 65_535, 65_536, 65_537,
              16_777_215, 16_777_216, 16_777_217]
    for d in delays:
        env.timeout(d).callbacks.append(
            lambda ev, d=d: fired.append((env.now, d)))
    env.run()
    assert fired == [(d, d) for d in sorted(delays)]
    assert env.now == 16_777_217
    assert env.wheel_promotions >= 1  # the >=2**24 entries came off the heap


def test_deadline_jump_then_short_timer_keeps_order():
    # run(until=) moves the clock without firing anything; a short timer
    # inserted after the jump lands in level 0 while an older, earlier
    # expiry still sits in level 1 — the resync must not let the newcomer
    # overtake it.
    env = Environment()
    order = []
    t300 = env.timeout(300)
    t300.callbacks.append(lambda ev: order.append(300))
    env.run(until=290)
    assert env.now == 290
    t350 = env.timeout(60)  # expiry 350
    t350.callbacks.append(lambda ev: order.append(350))
    env.run()
    assert order == [300, 350]
    assert env.now == 350


def test_deadline_jump_into_overflow_window():
    # Jump the clock into the 2**24 window of a far-future (overflow-heap)
    # timer, then race a nearer one: promotion must happen on the jump.
    env = Environment()
    order = []
    far = env.timeout(16_777_300)
    far.callbacks.append(lambda ev: order.append("far"))
    env.run(until=16_777_290)
    assert env.now == 16_777_290
    near = env.timeout(60)  # expiry 16_777_350, after `far`
    near.callbacks.append(lambda ev: order.append("near"))
    env.run()
    assert order == ["far", "near"]
    assert env.now == 16_777_350


def test_zero_delay_timeouts_fifo_with_triggers():
    env = Environment()
    order = []
    env.timeout(0).callbacks.append(lambda ev: order.append("t1"))
    env.event().succeed().callbacks.append(lambda ev: order.append("e"))
    env.timeout(0, value="v").callbacks.append(lambda ev: order.append("t2"))
    env.run()
    assert order == ["t1", "e", "t2"]
    assert env.now == 0


def test_zero_delay_timeout_from_pool():
    env = Environment()
    t = env.timeout(100)
    assert t.cancel() is True
    env.run()
    t2 = env.timeout(0, value=7)
    assert t2 is t  # reincarnated from the free-list
    assert t2.delay == 0
    env.run()
    assert t2.processed and t2._value == 7


def test_cancel_then_reschedule_through_every_level():
    # Cancel a timer parked at each wheel level (and the overflow heap);
    # the dead entry must still pop at its original expiry, and the object
    # must be reusable immediately afterwards.
    for delay in (100, 10_000, 1_000_000, 20_000_000):
        env = Environment()
        t = env.timeout(delay)
        assert t.cancel() is True
        env.run()
        assert env.now == delay  # dead entry still advanced the clock
        assert env.timeouts_recycled == 1
        t2 = env.timeout(5)
        assert t2 is t
        assert env.timeouts_reused == 1
        env.run()
        assert env.now == delay + 5


def test_step_on_empty_queue_raises_after_wheel_drain():
    env = Environment()
    env.timeout(5)
    env.timeout(70_000)  # level 1
    env.run()
    with pytest.raises(SimulationError, match="empty"):
        env.step()
    env.timeout(3)  # recoverable
    env.step()
    assert env.now == 70_003


def test_next_event_time_reaches_across_levels():
    env = Environment()
    assert env.next_event_time() is None
    far = env.timeout(20_000_000)  # overflow heap
    assert env.next_event_time() == 20_000_000
    mid = env.timeout(1_000_000)  # level 2
    assert env.next_event_time() == 1_000_000
    env.timeout(70_000)  # level 1
    assert env.next_event_time() == 70_000
    env.timeout(3)  # level 0
    assert env.next_event_time() == 3
    env.timeout(0)  # ready FIFO
    assert env.next_event_time() == 0
    for t in (far, mid):
        t.cancel()
    env.run()


def test_purge_cancelled_sweeps_every_bucket():
    env = Environment()
    live = env.timeout(370)
    dead = [env.timeout(d) for d in (100, 70_000, 5_000_000, 2**25)]
    zero_dead = env.timeout(0)
    for t in dead:
        assert t.cancel() is True
    assert zero_dead.cancel() is True  # sitting in the ready FIFO
    assert env.purge_cancelled() == 5
    assert env.purge_cancelled() == 0  # idempotent
    env.run()
    assert env.now == 370  # only the live timer determined the drain
    assert live.processed


def test_purge_preserves_measured_drain_times():
    # The torture suite cancels its watchdogs, purges, then *measures* the
    # drain to quiescence — that measurement must equal the time of the
    # last real event, never a cancelled watchdog's expiry, no matter
    # which wheel level (or the overflow heap) the watchdog sat in.
    env = Environment()
    done = []

    def work():
        for _ in range(10):
            yield env.timeout(37)
        done.append(env.now)

    env.process(work())
    watchdogs = [env.timeout(d) for d in (450, 80_000, 9_000_000, 2**26)]
    for w in watchdogs:
        assert w.cancel() is True
    assert env.purge_cancelled() == len(watchdogs)
    env.run()
    assert done == [370]
    assert env.now == 370  # drain time measured at the last real event


def test_wheel_counters_observe_activity():
    env = Environment()
    for d in (3, 1000, 70_000, 20_000_000):
        env.timeout(d)
    env.run()
    assert env.wheel_ticks == 4
    assert env.wheel_cascades >= 2  # level 1 and level 2 entries moved down
    assert env.wheel_promotions == 1
    assert env.now == 20_000_000


def test_run_until_between_wheel_levels_sets_clock():
    env = Environment()
    env.timeout(70_000)  # level 1
    env.run(until=500)
    assert env.now == 500
    env.run()
    assert env.now == 70_000


def test_debug_mode_matches_normal_mode():
    def build(env):
        def worker():
            for _ in range(50):
                ack = env.event()
                env.timeout(10).callbacks.append(
                    lambda _ev, ack=ack: ack.succeed())
                timer = env.timeout(1000)
                yield env.any_of([ack, timer])
                timer.cancel()

        for _ in range(4):
            env.process(worker())

    plain, checked = Environment(), Environment(debug=True)
    build(plain)
    build(checked)
    plain.run()
    checked.run()
    assert checked.events_processed == plain.events_processed
    assert checked.now == plain.now
    assert checked.timeouts_recycled == plain.timeouts_recycled


def test_debug_mode_catches_waiter_corruption():
    env = Environment(debug=True)
    t = env.timeout(5)

    def waiter():
        yield t

    env.process(waiter())
    env.step()  # start the process so it attaches to the timer
    t._waiters += 1  # simulate a detach-accounting leak
    with pytest.raises(SimulationError, match="waiter accounting"):
        env.run()


def test_debug_mode_batch_fire_shared_timer():
    # One shared timer fires many waiters in a single dispatch: direct
    # process waiters and any_of conditions together.  The debug invariant
    # (waiter count == attached waiter callbacks) must hold through the
    # whole batch, including the conditions' detach of their loser members.
    env = Environment(debug=True)
    shared = env.timeout(10)
    woken = []

    def direct(i):
        yield shared
        woken.append(("direct", i))

    def via_condition(i):
        loser = env.timeout(1000)
        yield env.any_of([shared, loser])
        woken.append(("cond", i))
        loser.cancel()

    for i in range(8):
        env.process(direct(i))
        env.process(via_condition(i))
    env.run(until=20)
    assert len(woken) == 16
    assert shared._waiters == 16  # processed events keep their final count
    env.run()  # drain the cancelled losers under the checked loop too
    assert env.now == 1000


def test_debug_mode_respects_stop_event_and_deadline():
    env = Environment(debug=True)
    fired = []
    env.timeout(5).callbacks.append(lambda ev: fired.append(5))
    env.timeout(50).callbacks.append(lambda ev: fired.append(50))
    env.run(until=10)
    assert env.now == 10 and fired == [5]
    stop = env.timeout(100, value="done")
    assert env.run(until=stop) == "done"
    assert fired == [5, 50]

    with pytest.raises(SimulationError, match="stop event"):
        env.run(until=env.event())


def test_many_timers_in_one_slot_share_the_tick():
    # 50 timers at the same expiry are one wheel tick batch-fired through
    # a single dispatch staging.
    env = Environment()
    fired = []
    for i in range(50):
        env.timeout(64).callbacks.append(lambda ev, i=i: fired.append(i))
    env.run()
    assert fired == list(range(50))
    assert env.wheel_ticks == 1


def _pinned_trace(env):
    """A fixed trace over every kind of wheel slot; returns its firing log.

    Level 1 gets a slot whose entries share one expiry (``pair``), a slot
    mixing two expiries with the later one filed between them (``mixed``,
    plus a cancelled entry), a lone entry and a run of 5 us poll slices
    racing a doorbell.  A level-2 slot (``l2``) cascades into two level-1
    slots, and two far-future timers come in through an overflow
    promotion.
    """
    log = []

    def mark(tag):
        return lambda _ev: log.append((tag, env.now))

    for tag, delay in (
            ("pair-a", 1_000), ("pair-b", 1_000),
            ("mixed-a", 2_100), ("mixed-b", 2_200), ("mixed-c", 2_100),
            ("lone", 3_000),
            ("l2-a", 300_000), ("l2-b", 300_000), ("l2-c", 300_700),
            ("far-a", 20_000_000), ("far-b", 20_000_000)):
        env.timeout(delay).callbacks.append(mark(tag))
    assert env.timeout(2_150).cancel()

    def spinner():
        bell = env.event()
        env.timeout(12_345).callbacks.append(lambda _ev: bell.succeed())
        for i in range(6):
            timer = env.timeout(5_000)
            yield env.any_of([bell, timer])
            timer.cancel()
            log.append((f"slice{i}", env.now))
            if bell.processed:
                bell = env.event()

    env.process(spinner())
    env.run()
    return log


# Recorded at the revision before single-expiry level-1 slots fired
# without passing through level 0; the counts must not move.
_PINNED_LOG = [
    ("pair-a", 1_000), ("pair-b", 1_000),
    ("mixed-a", 2_100), ("mixed-c", 2_100), ("mixed-b", 2_200),
    ("lone", 3_000),
    ("slice0", 5_000), ("slice1", 10_000), ("slice2", 12_345),
    ("slice3", 17_345), ("slice4", 22_345), ("slice5", 27_345),
    ("l2-a", 300_000), ("l2-b", 300_000), ("l2-c", 300_700),
    ("far-a", 20_000_000), ("far-b", 20_000_000),
]


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
def test_wheel_counts_pinned_on_fixed_trace(debug):
    env = Environment(debug=debug)
    assert _pinned_trace(env) == _PINNED_LOG
    assert env.events_processed == 28
    assert env.wheel_ticks == 15
    assert env.wheel_cascades == 15
    assert env.wheel_promotions == 1
    assert env.now == 20_000_000
