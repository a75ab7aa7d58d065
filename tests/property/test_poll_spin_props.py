"""Property-based tests: the holding spin against the slice-by-slice spec.

:meth:`repro.openmx.OmxLib._spin` keeps its claim on the core across poll
slice boundaries while nobody else wants the core, or holds it for two
waiters of one lib taking slices in turn, and accounts for the events the
slices it stands for would have run.  Twin runs of it and of
``poll_spin_spec.spin`` go over random slice lengths, waits and one-slice
waits, doorbells, completions by another process, ``cancel()``s and
claimants at every priority, with one spinner or with two sharing the
lib, its core and its doorbell.  Each act comes straight from a timer's
dispatch or a few zero-delay hops after it (a zero-delay timer is one).

The two differ in one case only, a *tie*: a hopped act in the tick of a
boundary of an open hold.  Every timer due in a tick fires before
anything those timers set off, so an act straight from a timer's dispatch
comes before the slice loop gives the core back there (a race later than
its own boundary timer).  A lone hold has no boundary timer and takes
every act in a boundary's tick to come first, so a hopped act that the
loop would order after its release can get the core a slice earlier, and
a claimant of higher priority queued in that slice then gets it after,
not before (``test_a_claim_hopping_past_the_boundary_timer``,
``test_a_tie_can_reorder_claimants``); with two waiters the shift can
move one's return past the other's
(``test_a_tie_can_cross_two_waiters_returns``).  A pair hold keeps the
loop's boundary timers and showed no tie case of its own.  Without a tie
the runs must grant the core to the same claimants at the same instants
in the same order, return at the same instants with the same statuses,
and leave the same ``busy_time``, ``env.events_processed`` and end time,
also where a two-waiter run is stopped on its way; with one each waiter
must still return the same statuses in the same order.

``run()`` credits an open hold's slices as it returns, so a run stopped
inside one counts what the loop does
(``test_events_processed_equal_inside_an_open_hold``).
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.hw.cpu import PRIO_BH, PRIO_KERNEL, PRIO_USER, CpuCore
from repro.hw.specs import XEON_E5460
from repro.openmx.driver import DriverEndpoint
from repro.openmx.lib import OmxLib, OmxRequest
from repro.sim import Environment, Store

from tests.property import poll_spin_spec as spec


class _Endpoint:
    """The doorbell and event queue of a driver endpoint."""

    post_event = DriverEndpoint.post_event
    refresh_doorbell = DriverEndpoint.refresh_doorbell

    def __init__(self, env):
        self.env = env
        self.event_queue = Store(env)
        self.doorbell = env.event()


class _Lib:
    """``OmxLib._spin``, ``_finish`` and ``cancel`` over what they read.

    A queued driver event is ``(request, status)``; draining one costs
    ``drain_ns`` on the core at user priority, as the lib's handlers
    charge theirs, then finishes the request.
    """

    _spin = OmxLib._spin
    _finish = OmxLib._finish
    cancel = OmxLib.cancel

    def __init__(self, env, slice_ns, drain_ns):
        self.env = env
        self.ep = _Endpoint(env)
        self.proc = SimpleNamespace(core=CpuCore(env, XEON_E5460, "h", 0))
        self.config = SimpleNamespace(poll_slice_ns=slice_ns)
        self.drain_ns = drain_ns
        self._posted = []
        self._waits = {}

    def _progress_drain(self):
        while True:
            ok, item = self.ep.event_queue.try_get()
            if not ok:
                return
            with self.proc.core.request(PRIO_USER) as r:
                yield r
                yield self.env.timeout(self.drain_ns)
            req, status = item
            if req is not None:
                self._finish(req, status)


# A spinner runs a list of waits: ("wait", plan) waits on a fresh
# request that ``plan`` completes, ("step",) is one wait_step().  A plan
# is (how, at, hops): ``hops`` zero-delay hops after ``at`` ns from when
# the wait is posted,
#   "doorbell"  the driver queues the completion and rings the doorbell
#   "finish"    another process finishes the request directly
#   "cancel"    another process cancels it (it is a posted receive)
# Claimants are (at, priority, hold_ns, hops) and doorbells that complete
# nothing are (at, hops), both from the start of the run.
_HOPS = st.integers(0, 3)
_PLAN = st.tuples(st.sampled_from(["doorbell", "finish", "cancel"]),
                  st.integers(0, 120), _HOPS)
_WAIT = st.one_of(st.tuples(st.just("wait"), _PLAN),
                  st.tuples(st.just("step")))
_CLAIM = st.tuples(st.integers(0, 400),
                   st.sampled_from([PRIO_BH, PRIO_KERNEL, PRIO_USER]),
                   st.integers(0, 30), _HOPS)
_BELL = st.tuples(st.integers(0, 400), _HOPS)
_RUNS = st.tuples(
    st.integers(1, 24),                      # poll_slice_ns
    st.integers(0, 6),                       # drain_ns
    st.lists(_WAIT, min_size=1, max_size=8),
    st.lists(_CLAIM, max_size=10),
    st.lists(_BELL, max_size=4),
)
# Two spinners of one lib, the second starting ``delay`` ns after the
# first, and an instant at which the run is stopped once on its way.
_PAIR_RUNS = st.tuples(
    st.integers(1, 24),                      # poll_slice_ns
    st.integers(0, 6),                       # drain_ns
    st.lists(st.tuples(st.integers(0, 60),   # (delay, waits)
                       st.lists(_WAIT, min_size=1, max_size=6)),
             min_size=2, max_size=2),
    st.lists(_CLAIM, max_size=8),
    st.lists(_BELL, max_size=4),
    st.one_of(st.none(), st.integers(0, 500)),
)


# Drawn runs end by about 1.3 us at the latest (acts by 520 ns, claims
# held 30 ns, eight waits of at most about 150 ns each); a hold that
# nothing ends keeps making slice timers, and the run fails here instead
# of going on forever.
_HORIZON_NS = 10_000


def _run_out(env):
    """Run ``env`` until nothing is left to dispatch, one tick per
    ``run()``, so the end time is the last event's."""
    while (tick := env.next_event_time()) is not None:
        assert tick <= _HORIZON_NS, f"the run is still going at {tick} ns"
        env.run(tick)


def _simulate(run, use_spec, until=None):
    """Run one spinner's ``run`` to the end (or to ``until``); see
    :func:`_simulate_lib`."""
    slice_ns, drain_ns, waits, claims, bells = run
    states, tie = _simulate_lib(slice_ns, drain_ns, [(0, waits)], claims,
                                bells, use_spec, until=until)
    return states[-1], tie


def _simulate_lib(slice_ns, drain_ns, spinners, claims, bells, use_spec,
                  until=None, stop=None):
    """Run ``spinners`` (each ``(delay, waits)``) on one lib to the end,
    or to ``until``.  Returns the states the run passed through, at
    ``stop`` if given and at the end, and whether a hold saw a tie.  A
    state is the grant and return log, the core's busy time, the events
    processed and the time."""
    env = Environment()
    lib = _Lib(env, slice_ns, drain_ns)
    core = lib.proc.core
    res = core.resource
    spin = (lambda req: spec.spin(lib, req)) if use_spec else lib._spin
    log = []
    hopped = []  # instants of acts made after a hop
    holds = []   # [arm instant, disarm instant] of each hold
    arm_wake, disarm_wake = res.arm_wake, res.disarm_wake

    def arm():
        holds.append([env.now, None])
        return arm_wake()

    def disarm():
        holds[-1][1] = env.now
        disarm_wake()

    res.arm_wake, res.disarm_wake = arm, disarm

    def after(at, hops):
        yield env.timeout(at)
        for _ in range(hops):
            yield env.timeout(0)
        if hops or not at:  # a zero-delay timer is a hop too
            hopped.append(env.now)

    def act(at, hops, fn):
        def proc():
            yield from after(at, hops)
            fn()
        env.process(proc())

    def claimant(n, at, priority, hold_ns, hops):
        yield from after(at, hops)
        with core.request(priority) as r:
            yield r
            log.append(("grant", n, env.now))
            yield env.timeout(hold_ns)

    def spinner(i, delay, waits):
        if delay:
            yield env.timeout(delay)
        for n, wait in enumerate(waits):
            if wait[0] == "step":
                status = yield from spin(None)
            else:
                how, at, hops = wait[1]
                req = OmxRequest(kind="recv", va=0, length=0,
                                 match_info=(i, n))
                if how == "doorbell":
                    act(at, hops,
                        lambda req=req: lib.ep.post_event((req, "ok")))
                elif how == "finish":
                    act(at, hops, lambda req=req: lib._finish(req, "ok"))
                else:
                    lib._posted.append(req)
                    act(at, hops, lambda req=req: lib.cancel(req))
                status = yield from spin(req)
            log.append(("return", (i, n), env.now, status))

    def state():
        busy = res.busy_time
        if res._busy_since is not None:
            busy += env.now - res._busy_since
        return list(log), busy, env.events_processed, env.now

    for n, claim in enumerate(claims):
        env.process(claimant(n, *claim))
    for at, hops in bells:
        act(at, hops, lambda: lib.ep.post_event((None, "ok")))
    for i, (delay, waits) in enumerate(spinners):
        env.process(spinner(i, delay, waits))
    states = []
    if stop is not None:
        env.run(stop)
        states.append(state())
    if until is None:
        _run_out(env)
    else:
        env.run(until)
    states.append(state())
    # A hold disarms its wake where it ends.
    tie = any(start < t <= (env.now if end is None else end)
              and (t - start) % slice_ns == 0
              for start, end in holds for t in hopped)
    return states, tie


def _returns(log):
    return [(entry[1], entry[3]) for entry in log if entry[0] == "return"]


@settings(max_examples=300, deadline=None)
@given(run=_RUNS)
def test_holding_spin_equals_the_slice_spec(run):
    held, tie = _simulate(run, use_spec=False)
    sliced, _ = _simulate(run, use_spec=True)
    assert _returns(held[0]) == _returns(sliced[0])
    if not tie:
        assert held == sliced


@settings(max_examples=300, deadline=None)
@given(run=_PAIR_RUNS)
def test_two_waiters_holding_equal_the_slice_spec(run):
    """Two spinners of one lib share its core and doorbell: a claim
    granted with the other's wait queued holds the core for both.  Both
    runs are also compared where they are stopped on their way.  A tie
    can move a return by a slice and so past the other waiter's; each
    waiter must still return the same statuses in the same order."""
    *lib_run, stop = run
    held, tie = _simulate_lib(*lib_run, use_spec=False, stop=stop)
    sliced, _ = _simulate_lib(*lib_run, use_spec=True, stop=stop)
    assert sorted(_returns(held[-1][0])) == sorted(_returns(sliced[-1][0]))
    if not tie:
        assert held == sliced


def test_a_claim_hopping_past_the_boundary_timer():
    """A bottom-half claim two hops into the boundary at 10 queues after
    the slice loop took the core again there: the loop grants it one
    slice later, at 20.  A hold has no boundary timer to order the claim
    against and gives the core back at the boundary, at 10."""
    run = (10, 0, [("wait", ("finish", 100, 0))], [(10, PRIO_BH, 0, 2)], [])
    (held, *_), tie = _simulate(run, use_spec=False)
    (sliced, *_), _ = _simulate(run, use_spec=True)
    assert tie
    assert held[0] == ("grant", 0, 10)
    assert sliced[0] == ("grant", 0, 20)


def test_a_tie_can_reorder_claimants():
    """A user-priority claim two hops into the boundary at 10 and a
    bottom-half claim at 15: the slice loop holds the core to 20 and
    grants the bottom half first; the hold grants the user claim at 10,
    takes the core back at 13 and grants the bottom half at 23."""
    run = (10, 0, [("wait", ("finish", 100, 0))],
           [(10, PRIO_USER, 3, 2), (15, PRIO_BH, 3, 0)], [])
    (held, *_), tie = _simulate(run, use_spec=False)
    (sliced, *_), _ = _simulate(run, use_spec=True)
    assert tie
    assert held[:2] == [("grant", 0, 10), ("grant", 1, 23)]
    assert sliced[:2] == [("grant", 1, 20), ("grant", 0, 23)]
    assert _returns(held) == _returns(sliced) == [((0, 0), "ok")]


def test_a_tie_can_cross_two_waiters_returns():
    """A one-slice wait from 30 and a wait whose completion is posted at
    20, with the bottom-half claim of
    ``test_a_claim_hopping_past_the_boundary_timer``.  The hold grants the
    claim at 10, so the completion is still queued at 30: the one-slice
    wait returns at once, before the other waiter, which drains it when
    the claim ends at 30.  The loop grants the claim at 20, after the
    waiter took the completion off the queue; the claim keeps the core to
    40, where the waiter returns, and the one-slice wait, which found the
    queue empty, returns at 50."""
    run = (10, 0, [(30, [("step",)]), (0, [("wait", ("doorbell", 20, 0))])],
           [(10, PRIO_BH, 20, 2)], [])
    [(held, *_)], tie = _simulate_lib(*run, use_spec=False)
    [(sliced, *_)], _ = _simulate_lib(*run, use_spec=True)
    assert tie
    assert held == [("grant", 0, 10), ("return", (0, 0), 30, None),
                    ("return", (1, 0), 30, "ok")]
    assert sliced == [("grant", 0, 20), ("return", (1, 0), 40, "ok"),
                      ("return", (0, 0), 50, None)]


def test_events_processed_equal_inside_an_open_hold():
    """Stopped at 55 inside a hold that started at 0, the spin has run
    five 10 ns slices (a claim, a timer and a race each) that the hold
    stands for: run() credits them as it returns, so the counts agree
    there and again once the hold ends at 100."""
    run = (10, 0, [("wait", ("finish", 100, 0))], [], [])
    (_, _, held, _), _ = _simulate(run, use_spec=False, until=55)
    (_, _, sliced, _), _ = _simulate(run, use_spec=True, until=55)
    assert held == sliced
    assert _simulate(run, use_spec=False) == _simulate(run, use_spec=True)
