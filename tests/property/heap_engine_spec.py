"""Executable spec of the event engine: one binary heap, nothing else.

The property tests in ``test_engine_wheel_props.py`` run the timer-wheel
engine of :mod:`repro.sim.engine` against this module.  It states the
scheduling contract the wheel must keep, in the plainest form:

* pending events are ordered by ``(time, insertion seq)`` — same-instant
  events fire in the order they were scheduled;
* ``events_processed`` counts every pop, including cancelled timers, which
  still pop at their original expiry and simply run no callbacks;
* ``run(until=t)`` stops before any event later than ``t`` and leaves the
  clock at ``t``; ``next_event_time()`` is the time of the next pending event.

It deliberately imports nothing from :mod:`repro.sim`, so a bug there
cannot leak into the reference.  Only what the property tests drive is
specified: bare events, timeouts, processes and their start events.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

__all__ = ["Environment", "Event", "Process", "Timeout"]


class Event:
    """Fires once, at the instant it is scheduled, running its callbacks."""

    def __init__(self, env: "Environment"):
        self.env = env
        # None once processed, like the engine's.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self.value: Any = None
        self.triggered = False

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        self.env._schedule(self, 0)
        return self


class Timeout(Event):
    """Scheduled ``delay`` ns after creation."""

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.triggered = True
        self.value = value
        env._schedule(self, delay)

    def cancel(self) -> None:
        # The heap entry stays: it pops, and counts, at the original expiry.
        self.callbacks = []


class Process(Event):
    """A generator resumed by each event it yields; fires when it returns."""

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        self.generator = generator
        start = Event(env).succeed()
        start.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        while True:
            try:
                target = self.generator.send(event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if target.callbacks is not None:
                target.callbacks.append(self._resume)
                return
            event = target  # already processed: resume at once


class Environment:
    """The clock and one heap of ``(time, seq, event)`` entries."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def _schedule(self, event: Event, delay: int) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))

    def next_event_time(self) -> int | None:
        return self._queue[0][0] if self._queue else None

    def run(self, until: int | None = None) -> None:
        while self._queue and (until is None or self._queue[0][0] <= until):
            self.now, _, event = heapq.heappop(self._queue)
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        if until is not None:
            self.now = max(self.now, until)
