"""Edge-case tests for the event engine."""

import pytest

from repro.sim import Environment, Event, Interrupt, Race, SimulationError
from repro.sim import engine


def test_allof_fails_fast_on_first_failure():
    env = Environment()
    slow = env.timeout(100, value="slow")
    failing = env.event()

    def failer():
        yield env.timeout(10)
        failing.fail(RuntimeError("member failed"))

    def waiter():
        with pytest.raises(RuntimeError, match="member failed"):
            yield env.all_of([slow, failing])
        assert env.now == 10
        yield slow  # drain

    env.process(failer())
    env.run(until=env.process(waiter()))


def test_anyof_with_pre_failed_event():
    env = Environment()
    failed = env.event()
    failed.fail(ValueError("early"))
    failed._defused = True

    def waiter():
        yield env.timeout(1)  # let the failure process
        with pytest.raises(ValueError, match="early"):
            yield env.any_of([failed, env.timeout(50)])
        return True

    assert env.run(until=env.process(waiter())) is True


def test_interrupt_while_waiting_on_condition():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.all_of([env.timeout(1000), env.timeout(2000)])
        except Interrupt as i:
            caught.append(i.cause)

    def interrupter(victim):
        yield env.timeout(5)
        victim.interrupt("now")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert caught == ["now"]


def test_run_is_not_reentrant():
    env = Environment()

    def inner():
        with pytest.raises(SimulationError, match="not reentrant"):
            env.run(until=10)
        yield env.timeout(1)

    env.process(inner())
    env.run()


def test_peek_and_step():
    env = Environment()
    env.timeout(5)
    env.timeout(20)
    assert env.peek() == 5
    env.step()
    assert env.now == 5
    assert env.peek() == 20


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_trigger_copies_state():
    env = Environment()
    src_ok = env.event().succeed("payload")
    dst = env.event()
    dst.trigger(src_ok)
    assert dst.triggered and dst._value == "payload"

    src_bad = env.event()
    src_bad.fail(KeyError("k"))
    src_bad._defused = True
    dst2 = env.event()
    dst2.trigger(src_bad)
    dst2._defused = True
    assert dst2.triggered and not dst2._ok
    env.run()


def test_many_interleaved_timers_fire_in_order():
    env = Environment()
    fired = []
    for delay in (30, 10, 20, 10, 30):
        env.process(iter_timer(env, delay, fired))
    env.run()
    assert fired == sorted(fired)
    assert env.now == 30


def iter_timer(env, delay, out):
    yield env.timeout(delay)
    out.append(env.now)


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError, match="needs an exception"):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError, match="empty"):
        env.step()
    # ... and the error is recoverable: the environment still works.
    env.timeout(5)
    env.step()
    assert env.now == 5


def test_cancel_recycles_into_free_list():
    env = Environment()
    t = env.timeout(100)
    assert t.cancel() is True
    env.run()  # the dead heap entry pops silently at t=100
    assert env.now == 100
    assert env.timeouts_recycled == 1
    # The very next timeout() is served from the pool — same object.
    t2 = env.timeout(7)
    assert t2 is t
    assert env.timeouts_reused == 1
    assert t2.delay == 7 and not t2._cancelled and not t2._defused
    env.run()
    assert env.now == 107


def test_cancel_spent_timer_returns_false():
    env = Environment()
    t = env.timeout(10)
    env.run()
    assert t.cancel() is False
    assert env.timeouts_recycled == 0


def test_cancel_waited_on_timer_raises():
    env = Environment()

    def waiter(t):
        yield t

    t = env.timeout(50)
    env.process(waiter(t))
    env.step()  # start the process so it attaches to the timer
    with pytest.raises(SimulationError, match="waited on"):
        t.cancel()
    env.run()


def test_cancel_timer_with_raw_callback_raises():
    env = Environment()
    t = env.timeout(50)
    t.callbacks.append(lambda ev: None)
    with pytest.raises(SimulationError, match="waited on"):
        t.cancel()
    env.run()


def test_condition_tracks_member_waiters():
    env = Environment()
    a, b = env.timeout(10), env.timeout(20)
    cond = env.all_of([a, b])
    assert a._waiters == 1 and b._waiters == 1
    env.run(until=cond)
    # Both members were processed (callbacks is None marks that); processed
    # events are inert, so their waiter count no longer matters.
    assert a.callbacks is None and b.callbacks is None
    assert a.cancel() is False and b.cancel() is False


def test_anyof_loser_detached_and_defused():
    env = Environment()
    fast = env.timeout(1)
    slow = env.timeout(1000)
    env.run(until=env.any_of([fast, slow]))
    assert env.now == 1
    # The loser was detached: no dead callback, no waiter, and a late
    # failure would be swallowed rather than crashing the run.
    assert slow._waiters == 0
    assert slow.callbacks == []
    assert slow._defused
    env.run()
    assert env.now == 1000


def test_anyof_loser_can_be_cancelled_after_detach():
    env = Environment()
    fast = env.timeout(1)
    slow = env.timeout(1000)
    env.run(until=env.any_of([fast, slow]))
    assert slow.cancel() is True  # detach left it unclaimed
    env.run()
    assert env.now == 1000  # dead entry still pops: clock is unchanged
    assert env.timeouts_recycled == 1


def test_race_is_exported():
    assert "Race" in engine.__all__
    assert Race is engine.Race
    env = Environment()
    assert isinstance(env.race(env.event(), env.timeout(1)), Race)


def test_race_failing_member_fails_the_race():
    env = Environment()
    member = env.event()
    timer = env.timeout(50)
    caught = []

    def failer():
        yield env.timeout(10)
        member.fail(RuntimeError("member failed"))

    def waiter():
        try:
            yield env.race(member, timer)
        except RuntimeError as exc:
            caught.append((env.now, str(exc)))
        timer.cancel()

    env.process(failer())
    env.process(waiter())
    env.run()
    assert caught == [(10, "member failed")]
    assert member._defused  # delivered to the yielder, so handled


def test_race_unwatched_loser_failure_is_swallowed():
    env = Environment()
    loser = env.event()
    env.run(until=env.race(loser, env.timeout(1)))
    assert loser._waiters == 0 and loser.callbacks == [] and loser._defused
    loser.fail(RuntimeError("late"))
    env.run()  # nobody watches it: the late failure crashes nothing


def test_race_watched_loser_failure_reaches_its_watcher():
    env = Environment()
    loser = env.event()

    def watcher():
        yield loser

    watch = env.process(watcher())
    env.run(until=env.race(loser, env.timeout(1)))
    # The race detached, but the watcher still waits: no defuse.
    assert loser._waiters == 1 and not loser._defused
    loser.fail(RuntimeError("late"))
    with pytest.raises(RuntimeError, match="late"):
        env.run()
    assert not watch.ok


def test_race_members_must_share_one_environment():
    env, other = Environment(), Environment()
    mine, theirs = env.event(), other.event()
    with pytest.raises(SimulationError, match="one environment"):
        env.race(mine, theirs)
    with pytest.raises(SimulationError, match="one environment"):
        env.race(theirs, mine)
    assert mine._waiters == 0 and mine.callbacks == []


def test_race_losing_timer_can_be_cancelled():
    env = Environment()
    doorbell = env.event()
    timer = env.timeout(5_000)
    doorbell.succeed()
    assert env.run(until=env.race(doorbell, timer)) is doorbell
    assert timer.cancel() is True  # detach left it unclaimed
    env.run()
    assert env.now == 5_000  # the dead entry still pops
    assert env.timeouts_recycled == 1
    assert env.timeout(3) is timer and env.timeouts_reused == 1


def test_race_with_processed_member_decides_at_once():
    env = Environment()
    done = env.event()
    done.succeed()
    env.run()
    pending = env.event()
    race = env.race(done, pending)
    assert race.triggered and race.value is done
    # Never attached to the other member, only defused it.
    assert pending.callbacks == [] and pending._waiters == 0
    assert pending._defused


def test_purge_cancelled_removes_dead_heap_entries():
    """purge_cancelled() is the opt-in complement to pop-time recycling:
    it drops cancelled, waiter-less timers from the heap so a bare run()
    does not stretch the clock out to their expiry."""
    env = Environment()
    fast = env.timeout(1)
    slow = env.timeout(1000)
    env.run(until=env.any_of([fast, slow]))
    assert slow.cancel() is True
    assert env.purge_cancelled() == 1
    env.run()
    assert env.now == 1  # the dead watchdog no longer drags the clock


def test_purge_cancelled_keeps_live_and_waited_on_entries():
    env = Environment()
    live = env.timeout(500)
    dead = env.timeout(1000)

    def waiter():
        yield live

    env.process(waiter())
    dead.cancel()
    assert env.purge_cancelled() == 1
    assert env.purge_cancelled() == 0  # idempotent
    env.run()
    assert env.now == 500  # the awaited timer survived the purge


def test_purge_cancelled_on_empty_queue():
    env = Environment()
    assert env.purge_cancelled() == 0
