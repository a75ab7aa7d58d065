"""Executable spec of a priority resource: holders kept in a set.

The property tests in ``test_resource_props.py`` run
:class:`repro.sim.Resource` against this module.  It is the resource as it
was written before holders became a count: every grant adds the request
to a ``_users`` set, a release looks the request up there, and a release
of a request that is not held searches the queue to cancel it.

Simulated time and event delivery are replaced by a ``clock`` callable and
a ``grant_log`` list, so the module imports nothing from :mod:`repro` and a
bug there cannot leak into the reference.  Do not "improve" it: its value
is that it is the slow, obvious form.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

__all__ = ["Request", "Resource"]


class Request:
    """A claim; ``granted`` turns True when the resource grants it."""

    def __init__(self, resource: "Resource", priority: int):
        self.resource = resource
        self.priority = priority
        self.granted = False
        resource._grant_or_enqueue(self)

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` slots, a priority heap, FIFO within one priority."""

    def __init__(self, clock: Callable[[], int], capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: list[tuple[int, int, Request]] = []
        self._seq = 0
        self.grant_log: list[Request] = []
        self.total_grants = 0
        self.busy_time = 0
        self._busy_since: int | None = None

    @property
    def count(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)

    def _grant_or_enqueue(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            self._grant(req)
        else:
            self._seq += 1
            heapq.heappush(self._queue, (req.priority, self._seq, req))

    def _grant(self, req: Request) -> None:
        self._users.add(req)
        self.total_grants += 1
        if self._busy_since is None:
            self._busy_since = self.clock()
        req.granted = True
        self.grant_log.append(req)

    def release(self, req: Request) -> None:
        if req in self._users:
            self._users.discard(req)
        else:
            for i, (_, _, queued) in enumerate(self._queue):
                if queued is req:
                    del self._queue[i]
                    heapq.heapify(self._queue)
                    break
            else:
                return  # already released; releasing twice is harmless
        while self._queue and len(self._users) < self.capacity:
            _, _, nxt = heapq.heappop(self._queue)
            self._grant(nxt)
        if not self._users and self._busy_since is not None:
            self.busy_time += self.clock() - self._busy_since
            self._busy_since = None

    def utilization(self, elapsed: int | None = None) -> float:
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.clock() - self._busy_since
        span = elapsed if elapsed is not None else self.clock()
        return busy / span if span > 0 else 0.0
