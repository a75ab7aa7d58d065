"""Discrete-event simulation engine.

This is the foundational substrate of the reproduction: every other layer
(hardware, kernel, Open-MX protocol, MPI) is expressed as generator-based
processes scheduled by the :class:`Environment` defined here.

The engine is a small, deterministic SimPy-like kernel:

* time is an integer number of nanoseconds (no floating point drift),
* events carry a value or an exception and run callbacks when *processed*,
* processes are Python generators that ``yield`` events and resume when the
  yielded event fires,
* ties in the event queue are broken by insertion order, which makes every
  simulation run bit-for-bit reproducible.

Timer-wheel event core
----------------------
The engine is the hottest code in the repository — every simulated byte is
paid for in scheduled events — so the scheduler takes the same discipline
the paper demands of the pinning path: make the common case nearly free.
Earlier revisions kept a single global ``heapq``; profiling showed the
remaining cost was per-event object churn (a heap tuple allocated and
sifted for *every* succeed/resume/timeout).  The queue is now a hierarchy:

* ``_ready`` — a FIFO of events due exactly at ``now``.  ``succeed()``,
  ``fail()``, process termination, zero-delay timeouts and interrupts are
  one ``append`` — no tuple, no sequence number, no heap sift.  Since the
  clock never advances while same-tick events remain, FIFO append order
  *is* global (time, insertion) order for them.
* three wheel levels of 256 slots each, holding pending timers bucketed by
  absolute expiry bits: level 0 keys on ``when & 255`` (entries in the
  current 256 ns window), level 1 on ``(when >> 8) & 255`` (current 65 µs
  window), level 2 on ``(when >> 16) & 255`` (current ~16.7 ms window).
  The level is picked by ``when ^ now`` (prefix-window rule): an entry
  lives at the highest-resolution level whose window it shares with the
  clock.  Inserting and lazily cancelling the short retransmit/poll timers
  that dominate protocol runs is O(1) list work.
* a per-level occupancy bitmap (one Python int per level) so advancing to
  the next pending expiry is a couple of bit tricks, never a scan over
  empty slots — the clock can leap across millisecond gaps in O(1).
* an overflow min-heap for far-future events (``when ^ now >= 2**24``);
  entries are promoted into the wheel when the clock's 2^24 window reaches
  them.  Watchdogs and blackout timers land here; everything hot stays in
  the wheel.

Ordering is provably bit-identical to the old global heap:

* all level-0 entries share the clock's ``>> 8`` window (an entry for a
  *later* window cannot be inserted at level 0 until the clock enters that
  window, at which point the old window's entries have fired), so one
  level-0 slot holds exactly one expiry and firing it batch-dispatches a
  whole tick;
* a slot's list is kept in insertion (sequence) order: direct inserts
  append in allocation order, and a cascade from a higher level only ever
  lands in an *empty* lower level (cascades run when every lower level has
  drained; the deadline-jump case is re-synchronised by ``_resync``), so
  cascaded entries — which are always older than any later direct insert —
  are never interleaved out of order;
* a level-1 slot whose entries share one expiry fires straight from level
  1: filed into the empty level 0 it would fill one slot, the next to pop,
  with the same entries in the same order;
* cancellation never changes simulated results: a cancelled timer's entry
  still pops at its original expiry, advancing the clock and the processed
  count exactly as an un-cancelled, unwatched timer would have, and the
  Timeout object is recycled through a free-list so the next
  ``env.timeout()`` costs a field reset instead of an allocation.

``run()`` keeps the dispatch body inlined per stop condition, and
``Environment(debug=True)`` swaps in a checked loop that verifies waiter
accounting (``_waiters`` vs attached waiter callbacks) and wheel-slot
ordering on every dispatch — the torture/chaos harnesses use it to catch
detach-accounting bugs under batch-fire.
"""

from __future__ import annotations

import time as _time
from collections import deque
from collections.abc import Callable, Generator, Iterable
from heapq import heapify, heappop, heappush
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Race",
    "SimulationError",
    "Timeout",
]

# Bound on the Timeout free-list so a cancellation storm cannot hold an
# unbounded number of dead objects alive.
_TIMEOUT_POOL_CAP = 4096

# Wheel geometry: three levels of 2**_WHEEL_BITS slots.  Level k buckets
# expiries by bits [8k, 8k+8); beyond level 2 (when ^ now >= 2**24, i.e.
# ~16.7 simulated milliseconds from the clock's current window) entries
# overflow into a min-heap.
_WHEEL_BITS = 8
_WHEEL_SLOTS = 1 << _WHEEL_BITS          # 256
_WHEEL_MASK = _WHEEL_SLOTS - 1           # 0xff
_L0_SPAN = 1 << _WHEEL_BITS              # 2**8
_L1_SPAN = 1 << (2 * _WHEEL_BITS)        # 2**16
_L2_SPAN = 1 << (3 * _WHEEL_BITS)        # 2**24


class SimulationError(Exception):
    """Raised for misuse of the simulation engine itself."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party supplies ``cause`` which the interrupted process
    can inspect (e.g. a retransmission timer firing, or a forced unpin).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle markers.
_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it for processing at the current simulation time, after which
    its callbacks run and any waiting processes resume.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled",
                 "_waiters", "_defused", "_cancelled", "_when", "_eid")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._scheduled = False
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        # _when/_eid are only assigned when the event enters the timer
        # wheel (future expiry); ready-queue events never need them.

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Triggering schedules at the current tick: a bare append to the
        # ready FIFO is the whole cost (hot path — no heap, no sequence).
        self._scheduled = True
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._scheduled = True
        self.env._ready.append(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (callback use)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        # Timers are the most-allocated object in the simulator; the whole
        # Event+schedule setup is inlined here (no super().__init__) to
        # keep creation one flat function.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        self.delay = delay
        if delay:
            env._insert(self, env._now + delay)
        else:
            env._ready.append(self)

    def cancel(self) -> bool:
        """Lazily cancel a timer that nobody waits on any more.

        Returns ``True`` if the timer was defused: its wheel entry will be
        skipped (no callbacks, no allocation) when its expiry pops, and the
        object is recycled into the environment's free-list for the next
        ``env.timeout()`` call.  Returns ``False`` if the timer has already
        fired and been processed — cancelling a spent timer is a no-op so
        race winners can cancel unconditionally.

        The caller asserts ownership: after ``cancel()`` the object must
        not be yielded, inspected, or retained (it may be reincarnated as a
        different timer).  Cancelling a timer that still has a waiter
        attached is a :class:`SimulationError`.
        """
        cbs = self.callbacks
        if cbs is None:
            return False
        if cbs or self._waiters:
            raise SimulationError(
                "cannot cancel a timeout that is still being waited on"
            )
        self._cancelled = True
        return True


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._scheduled = True
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        env._ready.append(self)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator may ``yield`` any :class:`Event`. If the yielded event
    fails and the generator does not catch the exception, the process fails
    with it; if nobody is waiting on the process either, the exception
    propagates out of :meth:`Environment.run` (crashes are never silent).
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process requires a generator, got {generator!r}")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        init = Initialize(env)
        init.callbacks.append(self._resume)
        init._waiters = 1  # uniform accounting: every _resume counts
        self._target: Event | None = init

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is None:
            raise SimulationError(f"cannot interrupt {self.name} before it starts")
        env = self.env
        interrupt_ev = Event(env)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        # Detach from the event we were waiting on; deliver the interrupt.
        # The waiter count drops with the callback so abandoned targets are
        # accounted exactly like condition detach.
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            else:
                target._waiters -= 1
        interrupt_ev.callbacks = [self._resume]
        interrupt_ev._waiters = 1
        env._schedule(interrupt_ev)

    def _resume(self, event: Event) -> None:
        env = self.env
        self._target = None
        generator = self.generator
        while True:
            try:
                if event._ok:
                    next_target = generator.send(event._value)
                else:
                    # Mark the failure as handled: it is being delivered.
                    event._defused = True
                    next_target = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self._scheduled = True
                env._ready.append(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._scheduled = True
                env._ready.append(self)
                return

            if not isinstance(next_target, Event):
                event = Event(env)
                event._ok = False
                event._value = SimulationError(
                    f"process {self.name!r} yielded non-event {next_target!r}"
                )
                continue
            if next_target.env is not env:
                raise SimulationError("yielded event belongs to another environment")
            callbacks = next_target.callbacks
            if callbacks is None:
                # Already processed: resume immediately with its value.
                event = next_target
                continue
            callbacks.append(self._resume)
            next_target._waiters += 1
            self._target = next_target
            return


class Condition(Event):
    """Base for AllOf/AnyOf composite events.

    A condition attaches one ``_check`` callback per member and counts
    itself as a waiter on each.  The moment it triggers (first failure,
    AnyOf satisfied, AllOf complete) it *detaches* from every still-pending
    member: their late firings then dispatch nothing instead of invoking a
    dead ``_check``, and a member nobody else watches keeps the old
    "ignored loser" semantics (its eventual failure is defused rather than
    crashing the run).
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        check = self._check
        decided = False
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all events must share one environment")
            if decided:
                # Decided during construction (a processed member satisfied
                # an AnyOf or failed an AllOf): never attach to the rest,
                # just defuse pending members we would have ignored anyway.
                if ev.callbacks is not None:
                    ev._defused = True
                continue
            cbs = ev.callbacks
            if cbs is None:
                # Already processed: account for it synchronously.
                check(ev)
                decided = self._value is not _PENDING
            else:
                cbs.append(check)
                ev._waiters += 1

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count as results: a Timeout is "triggered"
        # from birth (its fire time is fixed) but has not happened yet.
        return {ev: ev._value for ev in self.events if ev.callbacks is None}

    def _detach_pending(self) -> None:
        """Stop watching members that have not fired yet (we just triggered)."""
        check = self._check
        for ev in self.events:
            cbs = ev.callbacks
            if cbs is None:
                continue
            try:
                cbs.remove(check)
            except ValueError:
                continue
            ev._waiters -= 1
            if not cbs and not ev._waiters:
                # Nobody else watches this member; swallow a late failure
                # exactly as the dead _check callback used to.
                ev._defused = True

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Fires when all constituent events fire (fails fast on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach_pending()
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._detach_pending()


class Race(Event):
    """Fires with whichever of two events is processed first.

    The two-member form of :class:`AnyOf` that every protocol timer race
    uses (a doorbell or an ack against its timer): the value is the
    winning event itself, not a ``{event: value}`` dict, and a failing
    winner fails the race.  Attach, detach and dispatch follow ``AnyOf``
    step for step — the race triggers into the ready FIFO from the
    winner's dispatch, detaches from the loser (defusing it when nobody
    else watches it), and decides at once when a member is already
    processed at construction — so swapping one for the other changes no
    event order and no event count.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, env: "Environment", a: Event, b: Event):
        # Built once per poll slice: fields are set flat, as in Timeout.
        if a.env is not env or b.env is not env:
            raise SimulationError("all events must share one environment")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._waiters = 0
        self._defused = False
        self._cancelled = False
        self._a = a
        self._b = b
        check = self._check
        cbs = a.callbacks
        if cbs is None:
            # Decided at construction: never attach to the other member,
            # just defuse it if it is still pending.
            check(a)
            if b.callbacks is not None:
                b._defused = True
            return
        cbs.append(check)
        a._waiters += 1
        cbs = b.callbacks
        if cbs is None:
            check(b)
        else:
            cbs.append(check)
            b._waiters += 1

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if event._ok:
            self._ok = True
            self._value = event
        else:
            event._defused = True
            self._ok = False
            self._value = event._value
        self._scheduled = True
        self.env._ready.append(self)
        loser = self._b if event is self._a else self._a
        cbs = loser.callbacks
        if cbs is None:
            return
        try:
            cbs.remove(self._check)
        except ValueError:
            return  # never attached: decided at construction
        loser._waiters -= 1
        if not cbs and not loser._waiters:
            # Nobody else watches the loser; swallow a late failure.
            loser._defused = True


class Environment:
    """Holds the clock and the timer-wheel event core; executes the simulation.

    ``debug=True`` swaps the inlined dispatch loops for a checked loop that
    verifies waiter accounting and wheel-slot ordering on every event —
    slower, but it turns silent detach-accounting corruption into a
    :class:`SimulationError` at the exact dispatch that violates it.
    """

    __slots__ = ("_now", "_ready", "_l0", "_l1", "_l2",
                 "_occ0", "_occ1", "_occ2", "_overflow", "_eid", "_active",
                 "_debug", "_timeout_pool", "events_processed", "wall_time_s",
                 "timeouts_recycled", "timeouts_reused", "wheel_ticks",
                 "wheel_cascades", "wheel_promotions", "metrics")

    def __init__(self, initial_time: int = 0, debug: bool = False):
        self._now = int(initial_time)
        # Events due exactly at the current tick, in dispatch order.
        self._ready: deque[Event] = deque()
        # Timer-wheel levels: 256 slots each, plus an occupancy bitmap per
        # level (bit s set <=> slot s non-empty) so finding the next
        # pending expiry never scans empty slots.
        self._l0: list[list[Event]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._l1: list[list[Event]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._l2: list[list[Event]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._occ0 = 0
        self._occ1 = 0
        self._occ2 = 0
        # Far-future events (when ^ now >= 2**24): classic (when, seq, ev)
        # min-heap, promoted into the wheel when their window arrives.
        self._overflow: list[tuple[int, int, Event]] = []
        self._eid = 0
        self._active = False
        self._debug = bool(debug)
        # Free-list of cancelled Timeout objects collected at pop time;
        # timeout() reincarnates them instead of allocating.
        self._timeout_pool: list[Timeout] = []
        # Engine-level observability: plain attributes so the hot path stays
        # cheap; run() mirrors deltas into `metrics` (a repro.obs
        # MetricRegistry, duck-typed to keep this module dependency-free)
        # when one is attached.
        self.events_processed = 0
        self.wall_time_s = 0.0
        self.timeouts_recycled = 0
        self.timeouts_reused = 0
        self.wheel_ticks = 0
        self.wheel_cascades = 0
        self.wheel_promotions = 0
        self.metrics = None

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    # The factories below build objects field-by-field via __new__ instead
    # of calling the constructors: events and timers are created millions
    # of times per experiment and the extra __init__ frame is measurable.
    # Keep the field lists in sync with Event.__init__/Timeout.__init__.

    def event(self) -> Event:
        e = Event.__new__(Event)
        e.env = self
        e.callbacks = []
        e._value = _PENDING
        e._ok = None
        e._scheduled = False
        e._waiters = 0
        e._defused = False
        e._cancelled = False
        return e

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        pool = self._timeout_pool
        if pool:
            # A pooled timeout arrives with its empty callbacks list intact
            # and _ok/_scheduled/_waiters already in the right state (the
            # cancel() preconditions guarantee it); only four fields differ.
            t = pool.pop()
            t.delay = delay
            t._value = value
            t._defused = False
            t._cancelled = False
            self.timeouts_reused += 1
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
            t.delay = delay
            t.callbacks = []
            t._value = value
            t._ok = True
            t._scheduled = True
            t._waiters = 0
            t._defused = False
            t._cancelled = False
        if delay == 0:
            self._ready.append(t)
            return t
        # Inlined _insert (hot path): pick the wheel level whose window the
        # expiry shares with the clock, or overflow to the far heap.
        now = self._now
        when = now + delay
        self._eid = eid = self._eid + 1
        t._eid = eid
        t._when = when
        x = when ^ now
        if x < _L0_SPAN:
            s = when & _WHEEL_MASK
            self._l0[s].append(t)
            self._occ0 |= 1 << s
        elif x < _L1_SPAN:
            s = (when >> _WHEEL_BITS) & _WHEEL_MASK
            self._l1[s].append(t)
            self._occ1 |= 1 << s
        elif x < _L2_SPAN:
            s = (when >> (2 * _WHEEL_BITS)) & _WHEEL_MASK
            self._l2[s].append(t)
            self._occ2 |= 1 << s
        else:
            heappush(self._overflow, (when, eid, t))
        return t

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def race(self, a: Event, b: Event) -> Race:
        return Race(self, a, b)

    # -- scheduling -----------------------------------------------------------
    def _insert(self, event: Event, when: int) -> None:
        """File ``event`` (expiring at future time ``when``) into the wheel.

        Level choice is the prefix-window rule: an entry lives at the
        highest-resolution level whose window it shares with the clock
        (``when ^ now`` bounds the highest differing bit).  Keep in sync
        with the inlined copy in :meth:`timeout`.
        """
        self._eid = eid = self._eid + 1
        event._eid = eid
        event._when = when
        x = when ^ self._now
        if x < _L0_SPAN:
            s = when & _WHEEL_MASK
            self._l0[s].append(event)
            self._occ0 |= 1 << s
        elif x < _L1_SPAN:
            s = (when >> _WHEEL_BITS) & _WHEEL_MASK
            self._l1[s].append(event)
            self._occ1 |= 1 << s
        elif x < _L2_SPAN:
            s = (when >> (2 * _WHEEL_BITS)) & _WHEEL_MASK
            self._l2[s].append(event)
            self._occ2 |= 1 << s
        else:
            heappush(self._overflow, (when, eid, event))

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        if delay:
            self._insert(event, self._now + delay)
        else:
            self._ready.append(event)

    # -- wheel mechanics ------------------------------------------------------
    def _cascade(self) -> list[Event] | None:
        """Bring the next expiry down from the higher containers.

        Called only when the ready FIFO and level 0 are empty, which (by
        the prefix-window invariant) means *every* pending entry lives in
        level 1, level 2 or the overflow heap, strictly in that order of
        expiry.  Moves the earliest occupied level-1 slot down (pulling a
        level-2 slot, and a heap window before it, into level 1 first if
        level 1 is empty) and returns the list holding exactly the next
        expiry's entries, in insertion order.  Returns None when nothing is
        pending anywhere.

        When every entry of that level-1 slot shares one expiry (the common
        case: a lone poll or retransmit timer), the slot itself is that
        list, and filing it into level 0 only to pop the same entries back
        would be a bounce.  It is still counted as a cascade.
        """
        occ1 = self._occ1
        if not occ1:
            occ2 = self._occ2
            if not occ2:
                heap = self._overflow
                if not heap:
                    return None
                # Promote the earliest far-future window into level 2.
                shift = 3 * _WHEEL_BITS
                prefix = heap[0][0] >> shift
                l2 = self._l2
                while heap and heap[0][0] >> shift == prefix:
                    _, _, ev = heappop(heap)
                    s = (ev._when >> (2 * _WHEEL_BITS)) & _WHEEL_MASK
                    l2[s].append(ev)
                    occ2 |= 1 << s
                self.wheel_promotions += 1
            # Cascade the earliest level-2 slot into (empty) level 1.
            bit = occ2 & -occ2
            self._occ2 = occ2 ^ bit
            slot = self._l2[bit.bit_length() - 1]
            l1 = self._l1
            for ev in slot:
                s = (ev._when >> _WHEEL_BITS) & _WHEEL_MASK
                l1[s].append(ev)
                occ1 |= 1 << s
            slot.clear()
            self.wheel_cascades += 1
        # Cascade the earliest level-1 slot into (empty) level 0.
        bit = occ1 & -occ1
        self._occ1 = occ1 ^ bit
        slot = self._l1[bit.bit_length() - 1]
        self.wheel_cascades += 1
        if len(slot) > 1:
            # A slot whose entries all share one expiry is one tick
            # already: it is staged as is, in insertion order, without
            # being filed into level 0 and popped back out.
            when = slot[0]._when
            for ev in slot:
                if ev._when != when:
                    break
            else:
                return slot
            l0 = self._l0
            occ0 = 0
            for ev in slot:
                s = ev._when & _WHEEL_MASK
                l0[s].append(ev)
                occ0 |= 1 << s
            slot.clear()
            bit = occ0 & -occ0
            self._occ0 = occ0 ^ bit
            return l0[bit.bit_length() - 1]
        return slot

    def _advance_tick(self) -> bool:
        """Move the clock to the next pending expiry and stage its events.

        The whole tick (every entry with that expiry) lands on the ready
        FIFO in one batch.  Returns False when nothing is pending.
        """
        occ = self._occ0
        if occ:
            bit = occ & -occ
            self._occ0 = occ ^ bit
            slot = self._l0[bit.bit_length() - 1]
        else:
            slot = self._cascade()
            if slot is None:
                return False
        if self._debug:
            self._check_slot(slot)
        self._now = slot[0]._when
        self.wheel_ticks += 1
        self._ready.extend(slot)
        slot.clear()
        return True

    def _resync(self) -> None:
        """Re-establish the level invariants after a clock jump.

        ``run(until=<time>)`` can move the clock forward without firing an
        event.  Entries whose window the clock just entered must migrate
        down, otherwise a short timer inserted after the jump could land in
        level 0 and fire before an older, earlier entry still parked in a
        higher level.  At most one slot per boundary needs to move, and the
        receiving level is provably empty (an occupied lower level would
        have made the jump impossible without crossing its entries).
        """
        now = self._now
        heap = self._overflow
        shift = 3 * _WHEEL_BITS
        if heap and heap[0][0] >> shift == now >> shift:
            assert not self._occ2, "overflow promotion into occupied level 2"
            occ2 = 0
            prefix = now >> shift
            l2 = self._l2
            while heap and heap[0][0] >> shift == prefix:
                _, _, ev = heappop(heap)
                s = (ev._when >> (2 * _WHEEL_BITS)) & _WHEEL_MASK
                l2[s].append(ev)
                occ2 |= 1 << s
            self._occ2 = occ2
            self.wheel_promotions += 1
        occ2 = self._occ2
        if occ2:
            bit = 1 << ((now >> (2 * _WHEEL_BITS)) & _WHEEL_MASK)
            if occ2 & bit:
                assert not self._occ1, "cascade into occupied level 1"
                slot = self._l2[bit.bit_length() - 1]
                l1 = self._l1
                occ1 = 0
                for ev in slot:
                    s = (ev._when >> _WHEEL_BITS) & _WHEEL_MASK
                    l1[s].append(ev)
                    occ1 |= 1 << s
                slot.clear()
                self._occ2 = occ2 ^ bit
                self._occ1 = occ1
                self.wheel_cascades += 1
        occ1 = self._occ1
        if occ1:
            bit = 1 << ((now >> _WHEEL_BITS) & _WHEEL_MASK)
            if occ1 & bit:
                assert not self._occ0, "cascade into occupied level 0"
                slot = self._l1[bit.bit_length() - 1]
                l0 = self._l0
                occ0 = 0
                for ev in slot:
                    s = ev._when & _WHEEL_MASK
                    l0[s].append(ev)
                    occ0 |= 1 << s
                slot.clear()
                self._occ1 = occ1 ^ bit
                self._occ0 = occ0
                self.wheel_cascades += 1

    def _next_time(self) -> int | None:
        """Earliest pending expiry without mutating any wheel state."""
        occ = self._occ0
        if occ:
            bit = occ & -occ
            # All level-0 entries in one slot share a single expiry.
            return self._l0[bit.bit_length() - 1][0]._when
        occ = self._occ1
        if occ:
            bit = occ & -occ
            return min(ev._when for ev in self._l1[bit.bit_length() - 1])
        occ = self._occ2
        if occ:
            bit = occ & -occ
            return min(ev._when for ev in self._l2[bit.bit_length() - 1])
        if self._overflow:
            return self._overflow[0][0]
        return None

    def _pending_count(self) -> int:
        """Number of scheduled entries across ready, wheel, and overflow."""
        n = len(self._ready) + len(self._overflow)
        for slots, occ in ((self._l0, self._occ0), (self._l1, self._occ1),
                           (self._l2, self._occ2)):
            m = occ
            while m:
                bit = m & -m
                m ^= bit
                n += len(slots[bit.bit_length() - 1])
        return n

    # -- debug invariants -----------------------------------------------------
    def _check_slot(self, slot: list[Event]) -> None:
        """Debug: a firing slot is one expiry, in insertion order.

        The slot is a level-0 slot, or a single-expiry level-1 slot that
        :meth:`_cascade` hands over without filing it into level 0.
        """
        prev = -1
        when = slot[0]._when
        for ev in slot:
            if ev._when != when:
                raise SimulationError(
                    f"wheel corruption: firing slot mixes expiries "
                    f"{when} and {ev._when}")
            if ev._eid <= prev:
                raise SimulationError(
                    f"wheel corruption: slot out of insertion order "
                    f"(eid {ev._eid} after {prev})")
            prev = ev._eid

    @staticmethod
    def _check_waiters(event: Event,
                       callbacks: list[Callable[[Event], None]]) -> None:
        """Debug: ``_waiters`` matches the attached waiter callbacks.

        Process resumes and condition checks each count themselves as one
        waiter; raw callbacks do not.  Batch-fire dispatch (one shared
        timer waking many waiters) and condition detach must keep the two
        in lockstep — a mismatch means a detach path leaked or
        double-counted a waiter.
        """
        tracked = 0
        for cb in callbacks:
            name = getattr(cb, "__name__", "")
            if name == "_resume" or name == "_check":
                tracked += 1
        if event._waiters != tracked:
            raise SimulationError(
                f"waiter accounting corrupt on {event!r}: _waiters="
                f"{event._waiters} but {tracked} waiter callbacks attached")

    # -- public queue operations ----------------------------------------------
    def next_event_time(self) -> int | None:
        """Earliest pending event time across *every* pending structure.

        This is the public lookahead probe the PDES shard coordinator uses
        (:mod:`repro.sim.pdes`): a conservative window may only extend to
        the global minimum of every shard's next event, so the answer must
        bound **all three** places an event can be pending:

        * the ready FIFO — events due exactly at ``now`` (returns ``now``);
        * the three timer-wheel levels — the earliest occupied slot of the
          highest-resolution occupied level holds the next expiry;
        * the overflow min-heap — far-future events (``when ^ now >=
          2**24``) that have not yet been promoted into the wheel.

        Returns ``None`` when nothing at all is pending (the simulation
        would end).  Never mutates queue state, so it is safe to call
        between ``run(until=...)`` windows and from debug hooks.
        """
        if self._ready:
            return self._now
        return self._next_time()

    def peek(self) -> int | None:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self.next_event_time()

    def purge_cancelled(self) -> int:
        """Drop cancelled, waiter-less timeouts from the pending set.

        A cancelled :class:`Timeout` normally stays in its wheel bucket and
        is skipped when popped — which means a bare ``run()`` still
        advances the clock to its expiry before the queue empties.
        Harnesses that use long watchdog timers and then *measure* drain
        time (e.g. the torture suite's recovery-tail histogram) call this
        after cancelling the watchdog so quiescence is reached at the time
        of the last real event.  Opt-in only: ``run()``/``step()``
        semantics are unchanged.

        The sweep is per-bucket and bitmap-guided: only occupied wheel
        slots are visited (plus the ready FIFO and the overflow heap), so
        the cost scales with live buckets, not with wheel size.

        Returns the number of entries removed.
        """
        removed = 0
        ready = self._ready
        if ready:
            keep = [ev for ev in ready
                    if not (ev._cancelled and not ev.callbacks)]
            if len(keep) != len(ready):
                removed += len(ready) - len(keep)
                ready.clear()
                ready.extend(keep)
        for slots, occ_name in ((self._l0, "_occ0"), (self._l1, "_occ1"),
                                (self._l2, "_occ2")):
            occ = getattr(self, occ_name)
            m = occ
            while m:
                bit = m & -m
                m ^= bit
                slot = slots[bit.bit_length() - 1]
                keep = [ev for ev in slot
                        if not (ev._cancelled and not ev.callbacks)]
                if len(keep) != len(slot):
                    removed += len(slot) - len(keep)
                    slot[:] = keep
                    if not keep:
                        occ ^= bit
            setattr(self, occ_name, occ)
        heap = self._overflow
        if heap:
            keep = [entry for entry in heap
                    if not (entry[2]._cancelled and not entry[2].callbacks)]
            if len(keep) != len(heap):
                removed += len(heap) - len(keep)
                heapify(keep)
                self._overflow = keep
        return removed

    def step(self) -> None:
        """Process exactly one event.

        Mirrors one iteration of the inlined ``run()`` loop — keep the two
        dispatch bodies in sync.
        """
        ready = self._ready
        if not ready and not self._advance_tick():
            raise SimulationError("step() on an empty event queue")
        event = ready.popleft()
        self.events_processed += 1
        callbacks = event.callbacks
        if self._debug and callbacks:
            self._check_waiters(event, callbacks)
        event.callbacks = None
        if callbacks:
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for cb in callbacks:
                    cb(event)
        elif event._cancelled:
            # Hand the (empty) callbacks list back so reincarnation in
            # timeout() skips the list allocation.
            event.callbacks = callbacks
            self.timeouts_recycled += 1
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_CAP:
                pool.append(event)
        elif not event._ok and not event._defused:
            # A failed event nobody waited for: crash loudly.
            raise event._value

    def run(self, until: int | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time (ns) or an :class:`Event`; in the
        latter case the event's value is returned (or its exception raised).
        """
        if self._active:
            raise SimulationError("run() is not reentrant")
        stop_event: Event | None = None
        deadline: int | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = int(until)
            if deadline < self._now:
                raise SimulationError(
                    f"until={deadline} is in the past (now={self._now})"
                )
        self._active = True
        wall_start = _time.perf_counter()
        events_start = self.events_processed
        now_start = self._now
        ticks_start = self.wheel_ticks
        cascades_start = self.wheel_cascades
        promotions_start = self.wheel_promotions
        # Hot loop: everything it touches per event is a local; the
        # pop/dispatch body is inlined (three specialized copies, one per
        # stop condition) and flushed into the instance counters once, in
        # the finally block.  Keep the dispatch bodies in sync with step().
        r = self._ready
        rpop = r.popleft
        rextend = r.extend
        advance = self._advance_tick
        l0 = self._l0
        pool = self._timeout_pool
        pool_cap = _TIMEOUT_POOL_CAP
        processed = 0
        recycled = 0
        ticks = 0
        try:
            if self._debug:
                processed, recycled = self._run_checked(stop_event, deadline)
            elif stop_event is not None:
                while True:
                    while r:
                        if stop_event.callbacks is None:
                            break
                        event = rpop()
                        processed += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        if callbacks:
                            if len(callbacks) == 1:
                                callbacks[0](event)
                            else:
                                for cb in callbacks:
                                    cb(event)
                        elif event._cancelled:
                            event.callbacks = callbacks
                            recycled += 1
                            if len(pool) < pool_cap:
                                pool.append(event)
                        elif not event._ok and not event._defused:
                            raise event._value
                    else:
                        if stop_event.callbacks is None:
                            break
                        # Inline level-0 tick (the overwhelmingly common
                        # case); cascades fall back to _advance_tick.
                        occ = self._occ0
                        if occ:
                            bit = occ & -occ
                            self._occ0 = occ ^ bit
                            slot = l0[bit.bit_length() - 1]
                            self._now = slot[0]._when
                            ticks += 1
                            rextend(slot)
                            slot.clear()
                        elif not advance():
                            break
                        continue
                    break
            elif deadline is not None:
                while True:
                    while r:
                        event = rpop()
                        processed += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        if callbacks:
                            if len(callbacks) == 1:
                                callbacks[0](event)
                            else:
                                for cb in callbacks:
                                    cb(event)
                        elif event._cancelled:
                            event.callbacks = callbacks
                            recycled += 1
                            if len(pool) < pool_cap:
                                pool.append(event)
                        elif not event._ok and not event._defused:
                            raise event._value
                    # Inline level-0 tick with the deadline check folded in.
                    occ = self._occ0
                    if occ:
                        bit = occ & -occ
                        slot = l0[bit.bit_length() - 1]
                        nxt = slot[0]._when
                        if nxt > deadline:
                            self._now = deadline
                            self._resync()
                            break
                        self._occ0 = occ ^ bit
                        self._now = nxt
                        ticks += 1
                        rextend(slot)
                        slot.clear()
                    else:
                        nxt = self._next_time()
                        if nxt is None:
                            break
                        if nxt > deadline:
                            self._now = deadline
                            self._resync()
                            break
                        advance()
            else:
                while True:
                    while r:
                        event = rpop()
                        processed += 1
                        callbacks = event.callbacks
                        event.callbacks = None
                        if callbacks:
                            if len(callbacks) == 1:
                                callbacks[0](event)
                            else:
                                for cb in callbacks:
                                    cb(event)
                        elif event._cancelled:
                            event.callbacks = callbacks
                            recycled += 1
                            if len(pool) < pool_cap:
                                pool.append(event)
                        elif not event._ok and not event._defused:
                            raise event._value
                    occ = self._occ0
                    if occ:
                        bit = occ & -occ
                        self._occ0 = occ ^ bit
                        slot = l0[bit.bit_length() - 1]
                        self._now = slot[0]._when
                        ticks += 1
                        rextend(slot)
                        slot.clear()
                    elif not advance():
                        break
        finally:
            self._active = False
            self.events_processed += processed
            self.timeouts_recycled += recycled
            self.wheel_ticks += ticks
            wall = _time.perf_counter() - wall_start
            self.wall_time_s += wall
            if self.metrics is not None:
                m = self.metrics
                c_events = m.counter(
                    "sim_events_processed",
                    "events executed by the simulation engine")
                c_events.inc(self.events_processed - events_start)
                m.counter("sim_time_ns",
                          "simulated nanoseconds elapsed across run() calls").inc(
                    self._now - now_start)
                c_wall = m.counter(
                    "sim_wall_time_us",
                    "host wall-clock microseconds spent inside run()")
                c_wall.inc(int(wall * 1e6))
                m.counter("sim_wheel_ticks",
                          "distinct expiries batch-fired by the timer "
                          "wheel").inc(self.wheel_ticks - ticks_start)
                m.counter("sim_wheel_cascades",
                          "wheel slots redistributed one level down").inc(
                    self.wheel_cascades - cascades_start)
                m.counter("sim_wheel_promotions",
                          "overflow-heap windows promoted into the wheel"
                          ).inc(self.wheel_promotions - promotions_start)
                # Both gauges carry merge="sum": when worker registries
                # from a multi-environment run (parallel fan-out, PDES
                # shards) are folded together, per-engine pending counts
                # and throughputs add up instead of the last worker
                # overwriting every other engine's value.
                m.gauge("sim_wheel_pending",
                        "entries pending across ready/wheel/overflow at "
                        "run() exit", merge="sum").set(self._pending_count())
                # Derived engine throughput so `python -m repro.obs` renders
                # events/sec next to the protocol metrics.
                wall_us = c_wall.value
                if wall_us:
                    m.gauge("sim_events_per_sec",
                            "derived gauge: sim_events_processed / "
                            "sim_wall_time_us", merge="sum").set(
                        c_events.value / (wall_us / 1e6))
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() ran out of events before the stop event triggered"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if deadline is not None and not self._ready and self._next_time() is None:
            self._now = max(self._now, deadline)
        return None

    def _run_checked(self, stop_event: Event | None,
                     deadline: int | None) -> tuple[int, int]:
        """Debug-mode dispatch loop: one generic body with invariant checks.

        Semantically identical to the three specialized loops in
        :meth:`run` (same stop conditions, same dispatch body), but every
        event with callbacks is verified with :meth:`_check_waiters` and
        every fired slot with :meth:`_check_slot` before dispatch.
        """
        r = self._ready
        pool = self._timeout_pool
        processed = 0
        recycled = 0
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if not r:
                nxt = self._next_time()
                if nxt is None:
                    break
                if deadline is not None and nxt > deadline:
                    self._now = deadline
                    self._resync()
                    break
                self._advance_tick()
            event = r.popleft()
            processed += 1
            callbacks = event.callbacks
            if callbacks:
                self._check_waiters(event, callbacks)
            event.callbacks = None
            if callbacks:
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for cb in callbacks:
                        cb(event)
            elif event._cancelled:
                event.callbacks = callbacks
                recycled += 1
                if len(pool) < _TIMEOUT_POOL_CAP:
                    pool.append(event)
            elif not event._ok and not event._defused:
                raise event._value
        return processed, recycled
