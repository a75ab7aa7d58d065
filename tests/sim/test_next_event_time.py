"""``Environment.next_event_time()`` — the public PDES lookahead probe.

The conservative window math in :mod:`repro.sim.pdes` is only sound if
the probe bounds *every* structure an event can be pending in: the ready
FIFO (due now), all three timer-wheel levels, and the far-future overflow
heap.  Each source gets its own test so a future engine reshuffle that
forgets one fails here by name.
"""

import pytest

from repro.sim import Environment


def test_empty_environment_has_no_next_event():
    env = Environment()
    assert env.next_event_time() is None


def test_ready_fifo_bounds_next_event_time():
    env = Environment()
    fired = []
    env.timeout(5).callbacks.append(lambda _ev: fired.append(env.now))
    env.run(until=5)
    assert fired == [5]
    # A zero-delay timeout scheduled at the current instant sits in the
    # ready FIFO, not the wheel: the probe must report *now*, not the
    # next wheel expiry.
    env.timeout(0)
    env.timeout(40)
    assert env.next_event_time() == 5 == env.now


def test_wheel_levels_bound_next_event_time():
    env = Environment()
    # One timer per wheel level (256 ns slots, 3 levels): level 0, level 1,
    # level 2.  The probe must always report the earliest.
    env.timeout(3_000_000)      # level 2
    assert env.next_event_time() == 3_000_000
    env.timeout(70_000)         # level 1
    assert env.next_event_time() == 70_000
    env.timeout(200)            # level 0
    assert env.next_event_time() == 200


def test_overflow_heap_bounds_next_event_time():
    env = Environment()
    far = 1 << 40  # way past the wheel horizon: parked in the overflow heap
    env.timeout(far)
    assert env.next_event_time() == far
    # A nearer wheel timer takes over; the far timer still bounds after
    # the near one fires and the clock advances toward it.
    env.timeout(100)
    assert env.next_event_time() == 100
    env.run(until=100)
    assert env.next_event_time() == far


def test_probe_tracks_the_clock_across_run_windows():
    env = Environment()
    ticks = []

    def proc():
        for _ in range(4):
            yield env.timeout(1_000)
            ticks.append(env.now)

    env.process(proc())
    # Window-bounded runs, exactly how the PDES coordinator drives a
    # shard: after each run(until=end) the probe reports the first event
    # of the *next* window, and None once the shard is drained.
    assert env.next_event_time() == 0  # process initialization event
    env.run(until=1_500)
    assert ticks == [1_000]
    assert env.next_event_time() == 2_000
    env.run(until=10_000)
    assert ticks == [1_000, 2_000, 3_000, 4_000]
    assert env.next_event_time() is None


def test_probe_sees_a_lone_timer():
    env = Environment()
    env.timeout(77)
    assert env.next_event_time() == 77
