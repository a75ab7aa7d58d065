"""Baseline: user-space registration cache via malloc/munmap interception.

This is the mechanism Open MPI and MVAPICH used before MMU notifiers
existed (Sections 2.1 and 5): the MPI library interposes on ``free`` /
``munmap`` symbols and invalidates its registration cache when the
application releases memory.  The paper lists its failure modes:

* it only works for **dynamically linked** programs using the standard
  allocator — a static binary or a custom malloc bypasses the hooks, the
  cache keeps stale translations, and transfers silently touch the wrong
  physical pages;
* the hooks fire on **every** deallocation, however tiny and however
  unrelated to communication, adding overhead to the application's
  allocation path.

The implementation wraps a :class:`~repro.kernel.allocator.Malloc` and an
Open-MX-style region table *without* MMU notifiers, so the tests (and the
ablation experiment) can demonstrate both the stale-translation corruption
and the per-free hook overhead that the kernel-based design eliminates.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Generator
from dataclasses import dataclass

from repro.kernel.context import ExecContext
from repro.kernel.kernel import UserProcess
from repro.obs.metrics import Counters

__all__ = ["HookedAllocator", "UserspaceRegistrationCache"]

# Cost of one interposed free/munmap hook: symbol indirection plus the
# cache lookup the hook performs (measured values from the era are in the
# hundreds of nanoseconds).
HOOK_COST_NS = 300


@dataclass(frozen=True)
class _Entry:
    region_id: int
    va: int
    length: int


class UserspaceRegistrationCache:
    """An LRU registration cache invalidated from user-space hooks."""

    def __init__(self, declare: Callable[[ExecContext, int, int], Generator],
                 destroy: Callable[[ExecContext, int], Generator],
                 capacity: int = 64, counters: Counters | None = None):
        self._declare = declare
        self._destroy = destroy
        self.capacity = capacity
        self._lru: OrderedDict[tuple[int, int], _Entry] = OrderedDict()
        self.counters = counters if counters is not None else Counters()

    def get(self, ctx: ExecContext, va: int, length: int) -> Generator:
        """Look up or register (va, length); returns the region id."""
        key = (va, length)
        entry = self._lru.get(key)
        if entry is not None:
            self._lru.move_to_end(key)
            self.counters.incr("uscache_hit")
            return entry.region_id
        self.counters.incr("uscache_miss")
        if len(self._lru) >= self.capacity:
            _, victim = self._lru.popitem(last=False)
            yield from self._destroy(ctx, victim.region_id)
            self.counters.incr("uscache_evict")
        rid = yield from self._declare(ctx, va, length)
        self._lru[key] = _Entry(rid, va, length)
        return rid

    def invalidate_range(self, ctx: ExecContext, start: int,
                         end: int) -> Generator:
        """The free/munmap hook: drop overlapping entries."""
        victims = [
            key for key, e in self._lru.items()
            if e.va < end and start < e.va + e.length
        ]
        for key in victims:
            entry = self._lru.pop(key)
            yield from self._destroy(ctx, entry.region_id)
            self.counters.incr("uscache_invalidate")

    def __len__(self) -> int:
        return len(self._lru)


class HookedAllocator:
    """A process allocator with interposed deallocation hooks.

    ``hooks_active`` models whether symbol interception actually engaged:
    True for a dynamically-linked program on the standard allocator, False
    for static linking / custom malloc — in which case frees silently skip
    the cache invalidation (the unreliability the paper calls out).
    """

    def __init__(self, proc: UserProcess, cache: UserspaceRegistrationCache,
                 hooks_active: bool = True):
        self.proc = proc
        self.cache = cache
        self.hooks_active = hooks_active
        self.hook_invocations = 0

    def malloc(self, size: int) -> int:
        return self.proc.malloc(size)

    def free(self, ctx: ExecContext, addr: int) -> Generator:
        """Free with the interposition hook (a process generator)."""
        alloc = self.proc.heap.allocation(addr)
        if alloc is None:
            raise ValueError(f"free of unknown pointer {addr:#x}")
        if self.hooks_active:
            # The hook runs on EVERY deallocation, communication-related
            # or not — that is its documented overhead.
            self.hook_invocations += 1
            yield from ctx.charge(HOOK_COST_NS)
            yield from self.cache.invalidate_range(
                ctx, alloc.addr, alloc.addr + alloc.size
            )
        self.proc.free(addr)
