"""Contended resources for the simulation engine.

Two primitives cover every contention point in the modelled system:

* :class:`Resource` — a counted resource with a priority FIFO queue.  CPU
  cores, DMA channels and NIC transmit queues are Resources.  Lower
  ``priority`` values are served first (bottom-half interrupt work uses a
  lower value than user processes, which is how receive processing starves
  an application pinning loop in the Section 4.3 experiment).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Packet queues and request completion queues are Stores.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from .engine import _PENDING, Environment, Event, SimulationError

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Usable as a context manager so that the holder always releases::

        with core.request(priority=5) as req:
            yield req
            yield env.timeout(cost)
    """

    __slots__ = ("resource", "priority", "_held")

    def __init__(self, resource: "Resource", priority: int,
                 seq: int | None = None):
        # Core claims are among the most frequent allocations in a run, so
        # the Event setup is inlined here (no super().__init__), as in
        # Timeout, and a free slot is granted in place: the claim goes
        # straight onto the ready FIFO, as succeed() would put it.  A
        # queued claim takes the next sequence number unless ``seq`` gives
        # it the place of one that left the queue (Resource.hand_over).
        env = resource.env
        self.env = env
        self.callbacks = []
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        self.resource = resource
        self.priority = priority
        if resource._holders < resource.capacity:
            resource._holders += 1
            resource.total_grants += 1
            if resource._busy_since is None:
                resource._busy_since = env._now
            self._held = True
            self._ok = True
            self._value = self
            self._scheduled = True
            env._ready.append(self)
        else:
            self._held = False
            self._ok = None
            self._value = _PENDING
            self._scheduled = False
            if seq is None:
                resource._seq = seq = resource._seq + 1
            heapq.heappush(resource._queue, (priority, seq, self))
            resource.wake()  # a holder that armed one: someone now waits

    def release(self) -> None:
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A resource with ``capacity`` concurrent slots and a priority queue.

    Holders are counted, not collected: a granted :class:`Request` carries
    ``_held``, so an uncontended claim and its release touch no set and no
    heap.  Only a claim that finds every slot taken enters the queue.

    A holder that would otherwise give the slot back at regular intervals
    just in case someone wants it can instead :meth:`arm_wake`: the armed
    event fires when the next claim queues, or when :meth:`wake` is
    called.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._holders = 0
        self._queue: list[tuple[int, int, Request]] = []
        self._seq = 0
        self._wake: Event | None = None
        # Accounting for utilization reports.
        self.total_grants = 0
        self.busy_time = 0
        self._busy_since: int | None = None

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._holders

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event fires when the claim is granted."""
        return Request(self, priority)

    def peek(self) -> Request | None:
        """The queued claim the next release grants, if any."""
        return self._queue[0][2] if self._queue else None

    def hand_over(self, held: Request, queued: Request) -> Request:
        """Pass ``held``'s slot straight to the queued claim ``queued`` and
        queue a fresh claim at ``held``'s priority in the place ``queued``
        leaves: ahead of every claim of equal priority that queued after
        ``queued`` did.  Returns the fresh claim.

        ``queued`` fires with ``held`` as its value, not itself, so its
        waiter can tell a slot handed over from one granted in turn.  The
        slot never comes free, so ``busy_time`` does not move.
        """
        q = self._queue
        for i, (_, seq, claim) in enumerate(q):
            if claim is queued:
                break
        else:
            raise SimulationError(f"{queued!r} is not queued on {self.name}")
        del q[i]
        heapq.heapify(q)
        fresh = Request(self, held.priority, seq)
        held._held = False
        queued._held = True
        self.total_grants += 1
        queued.succeed(held)
        return fresh

    def arm_wake(self) -> Event:
        """Return a fresh event that fires once, when a claim next queues
        here or :meth:`wake` is called; arming again replaces it."""
        self._wake = wake = self.env.event()
        return wake

    def disarm_wake(self) -> None:
        self._wake = None

    def wake(self) -> None:
        """Fire the armed wake event, if any."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake.succeed()

    def _grant(self, req: Request) -> None:
        self._holders += 1
        req._held = True
        self.total_grants += 1
        if self._busy_since is None:
            self._busy_since = self.env.now
        req.succeed(req)

    def release(self, req: Request) -> None:
        """Give the slot back and wake the best queued claimant, if any."""
        if req._held:
            req._held = False
            self._holders -= 1
        else:
            # Cancel a queued request (e.g. the waiter was interrupted).
            for i, (_, _, queued) in enumerate(self._queue):
                if queued is req:
                    del self._queue[i]
                    heapq.heapify(self._queue)
                    break
            else:
                return  # already released; releasing twice is harmless
        while self._queue and self._holders < self.capacity:
            _, _, nxt = heapq.heappop(self._queue)
            self._grant(nxt)
        if not self._holders and self._busy_since is not None:
            self.busy_time += self.env._now - self._busy_since
            self._busy_since = None

    def utilization(self, elapsed: int | None = None) -> float:
        """Fraction of time the resource had at least one holder."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        span = elapsed if elapsed is not None else self.env.now
        return busy / span if span > 0 else 0.0


class Store:
    """Unbounded FIFO of items with event-based blocking ``get``."""

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        self.total_puts += 1
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: (True, item) or (False, None)."""
        if self._items:
            return True, self._items.popleft()
        return False, None
