"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError, Store


def test_resource_serializes_holders():
    env = Environment()
    core = Resource(env, capacity=1, name="core")
    timeline = []

    def worker(tag, cost):
        with core.request() as req:
            yield req
            timeline.append((tag, "start", env.now))
            yield env.timeout(cost)
            timeline.append((tag, "end", env.now))

    env.process(worker("a", 100))
    env.process(worker("b", 50))
    env.run()
    assert timeline == [
        ("a", "start", 0),
        ("a", "end", 100),
        ("b", "start", 100),
        ("b", "end", 150),
    ]


def test_resource_capacity_allows_parallelism():
    env = Environment()
    pool = Resource(env, capacity=2)
    ends = []

    def worker(cost):
        with pool.request() as req:
            yield req
            yield env.timeout(cost)
            ends.append(env.now)

    for _ in range(4):
        env.process(worker(100))
    env.run()
    assert ends == [100, 100, 200, 200]


def test_priority_queue_order():
    env = Environment()
    core = Resource(env, capacity=1)
    order = []

    def hog():
        with core.request() as req:
            yield req
            yield env.timeout(100)

    def worker(tag, prio):
        yield env.timeout(1)  # arrive while the hog holds the core
        with core.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(10)

    env.process(hog())
    env.process(worker("low", 10))
    env.process(worker("high", 0))
    env.process(worker("mid", 5))
    env.run()
    assert order == ["high", "mid", "low"]


def test_fifo_within_same_priority():
    env = Environment()
    core = Resource(env, capacity=1)
    order = []

    def hog():
        with core.request() as req:
            yield req
            yield env.timeout(50)

    def worker(tag):
        yield env.timeout(1)
        with core.request(priority=3) as req:
            yield req
            order.append(tag)

    env.process(hog())
    for tag in "abcd":
        env.process(worker(tag))
    env.run()
    assert order == list("abcd")


def test_release_of_queued_request_cancels_it():
    env = Environment()
    core = Resource(env, capacity=1)
    granted = []

    def hog():
        with core.request() as req:
            yield req
            yield env.timeout(100)

    def impatient():
        yield env.timeout(1)
        req = core.request()
        try:
            yield env.any_of([req, env.timeout(10)])
        finally:
            if not req.triggered:
                core.release(req)  # give up the queued claim
        granted.append(("impatient", req.triggered))

    def patient():
        yield env.timeout(2)
        with core.request() as req:
            yield req
            granted.append(("patient", env.now))

    env.process(hog())
    env.process(impatient())
    env.process(patient())
    env.run()
    assert ("impatient", False) in granted
    assert ("patient", 100) in granted


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_utilization_accounting():
    env = Environment()
    core = Resource(env, capacity=1)

    def worker():
        yield env.timeout(50)
        with core.request() as req:
            yield req
            yield env.timeout(50)

    env.process(worker())
    env.run()
    assert env.now == 100
    assert core.utilization() == pytest.approx(0.5)


def test_double_release_is_harmless():
    env = Environment()
    core = Resource(env, capacity=1)

    def worker():
        req = core.request()
        yield req
        core.release(req)
        core.release(req)

    env.run(until=env.process(worker()))
    assert core.count == 0


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield env.timeout(10)
            store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(10, 0), (20, 1), (30, 2)]


def test_store_get_before_put_blocks():
    env = Environment()
    store = Store(env)
    result = []

    def consumer():
        item = yield store.get()
        result.append((env.now, item))

    def producer():
        yield env.timeout(99)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert result == [(99, "late")]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() == (False, None)
    store.put("x")
    assert store.try_get() == (True, "x")
    assert store.try_get() == (False, None)


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    def producer():
        yield env.timeout(5)
        store.put(1)
        store.put(2)

    env.process(consumer("first"))
    env.process(consumer("second"))
    env.process(producer())
    env.run()
    assert got == [("first", 1), ("second", 2)]


def test_interrupted_waiter_releases_queued_request():
    env = Environment()
    core = Resource(env, capacity=1)
    outcome = {}

    def hog():
        with core.request() as req:
            yield req
            yield env.timeout(100)

    def waiter():
        yield env.timeout(1)
        req = core.request()
        try:
            yield req
            outcome["granted"] = True
        except Interrupt:
            core.release(req)
            outcome["granted"] = False

    def killer(victim):
        yield env.timeout(10)
        victim.interrupt()

    env.process(hog())
    victim = env.process(waiter())
    env.process(killer(victim))
    env.run()
    assert outcome == {"granted": False}
    assert core.queue_length == 0


def test_hand_over_passes_the_slot_and_keeps_the_queue_place():
    """The holder's slot goes straight to the queued claim, which fires
    with the holder's claim as its value; the holder's fresh claim sits
    where the other stood, ahead of an equal-priority claim that queued
    later, and the slot never comes free."""
    env = Environment()
    res = Resource(env, name="core")
    held = res.request(10)
    queued = res.request(10)
    later = res.request(10)
    assert res.peek() is queued
    env.run()
    fresh = res.hand_over(held, queued)
    assert res.count == 1 and res.queue_length == 2
    assert res.peek() is fresh
    env.run()
    assert queued.value is held
    res.release(queued)
    assert fresh.triggered and not later.triggered
    env.run(until=5)
    res.release(fresh)
    res.release(later)
    assert res.busy_time == 5


def test_hand_over_needs_a_queued_claim():
    env = Environment()
    res = Resource(env, name="core")
    held = res.request()
    with pytest.raises(SimulationError, match="not queued"):
        res.hand_over(held, held)
