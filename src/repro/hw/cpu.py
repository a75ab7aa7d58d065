"""CPU cores as contended simulation resources.

A :class:`CpuCore` is a unit-capacity priority resource.  All host-side work
— syscalls, memory copies, page pinning, interrupt bottom halves, completion
polling — executes by holding a core for a span of simulated time.

Priorities (lower = served first) follow Linux's effective ordering:

* ``PRIO_BH``     — softirq / bottom-half receive processing ("strongly
  privileged" in the paper's words; it can starve user work, which is the
  mechanism behind the Section 4.3 overlap-miss collapse),
* ``PRIO_KERNEL`` — syscall-context kernel work (pinning, tx path),
* ``PRIO_USER``   — application computation and completion polling.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.hw.specs import CpuSpec
from repro.sim import Environment, Resource

__all__ = ["CpuCore", "PRIO_BH", "PRIO_KERNEL", "PRIO_USER"]

PRIO_BH = 0
PRIO_KERNEL = 5
PRIO_USER = 10


class CpuCore:
    """One core: a unit-capacity priority resource plus helpers."""

    def __init__(self, env: Environment, spec: CpuSpec, host_name: str, index: int):
        self.env = env
        self.spec = spec
        self.index = index
        self.name = f"{host_name}/cpu{index}"
        self._res = Resource(env, capacity=1, name=self.name)

    @property
    def queue_length(self) -> int:
        return self._res.queue_length

    @property
    def resource(self) -> Resource:
        """The core's claim queue, for holders that arm a wake on it."""
        return self._res

    @property
    def busy(self) -> bool:
        return self._res.count > 0

    def utilization(self, elapsed: int | None = None) -> float:
        return self._res.utilization(elapsed)

    def execute(self, cost_ns: int, priority: int = PRIO_USER) -> Generator:
        """Hold the core for ``cost_ns`` (single uninterruptible span).

        Use :meth:`execute_sliced` for long work that must yield to
        higher-priority claimants at a finer grain.
        """
        with self._res.request(priority) as req:
            yield req
            if cost_ns > 0:
                yield self.env.timeout(cost_ns)

    def execute_sliced(self, cost_ns: int, priority: int = PRIO_USER,
                       slice_ns: int = 2_000) -> Generator:
        """Hold the core in ``slice_ns`` chunks, requeueing between chunks.

        Long-running work (large memcpys, page-pinning loops) uses this so a
        bottom half arriving mid-way is served at the next slice boundary —
        the simulation analogue of involuntary preemption.
        """
        remaining = cost_ns
        while remaining > 0:
            chunk = min(remaining, slice_ns)
            with self._res.request(priority) as req:
                yield req
                yield self.env.timeout(chunk)
            remaining -= chunk

    def memcpy(self, nbytes: int, priority: int = PRIO_KERNEL) -> Generator:
        """Copy ``nbytes`` on this core at the CPU's memcpy bandwidth."""
        from repro.util.units import transfer_time_ns

        cost = transfer_time_ns(nbytes, self.spec.memcpy_bytes_per_sec)
        yield from self.execute(cost, priority)

    def request(self, priority: int = PRIO_USER):
        """Raw claim on the core (caller must release / use as ctx manager)."""
        return self._res.request(priority)
