"""Property-based tests: the holding spin against the slice-by-slice spec.

:meth:`repro.openmx.OmxLib._spin` keeps its claim on the core across poll
slice boundaries while nobody else wants the core, and accounts for the
events the slices it stands for would have run.  Twin runs of it and of
``poll_spin_spec.spin`` go over random slice lengths, waits and one-slice
waits, doorbells, completions by another process, ``cancel()``s and
claimants at every priority.  Each act comes straight from a timer's
dispatch or a few zero-delay hops after it.

The two differ in one case only, a *tie*: a hopped act in the tick of a
boundary of an open hold.  Every timer due in a tick fires before
anything those timers set off, so an act straight from a timer's dispatch
comes before the slice loop gives the core back there (a race later than
its own boundary timer).  A hold has no boundary timer and takes every
act in a boundary's tick to come first, so a hopped act that the loop
would order after its release can get the core a slice earlier, and a
claimant of higher priority queued in that slice then gets it after, not
before (``test_a_claim_hopping_past_the_boundary_timer``,
``test_a_tie_can_reorder_claimants``).  Without a tie the runs must grant
the core to the same claimants at the same instants in the same order,
return at the same instants with the same statuses, and leave the same
``busy_time`` and ``env.events_processed``; with one they must still
return the same statuses in the same order.

A hold adds the events of the slices it stands for only when it ends, so
a run stopped inside one counts fewer than the loop until the hold closes
(``test_events_processed_lags_inside_an_open_hold``).
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


# The spinner runs a list of waits: ("wait", plan) waits on a fresh
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
_RUNS = st.tuples(
    st.integers(1, 24),                      # poll_slice_ns
    st.integers(0, 6),                       # drain_ns
    st.lists(_WAIT, min_size=1, max_size=8),
    st.lists(_CLAIM, max_size=10),
    st.lists(st.tuples(st.integers(0, 400), _HOPS), max_size=4),
)


def _simulate(run, use_spec, until=None):
    """Run ``run`` to the end (or to ``until``); returns the grant and
    return log, ``busy_time``, ``events_processed`` and the end time, and
    whether a hold saw a tie."""
    slice_ns, drain_ns, waits, claims, bells = run
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
        if hops:
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

    def spinner():
        for n, wait in enumerate(waits):
            if wait[0] == "step":
                status = yield from spin(None)
            else:
                how, at, hops = wait[1]
                req = OmxRequest(kind="recv", va=0, length=0, match_info=n)
                if how == "doorbell":
                    act(at, hops,
                        lambda req=req: lib.ep.post_event((req, "ok")))
                elif how == "finish":
                    act(at, hops, lambda req=req: lib._finish(req, "ok"))
                else:
                    lib._posted.append(req)
                    act(at, hops, lambda req=req: lib.cancel(req))
                status = yield from spin(req)
            log.append(("return", n, env.now, status))

    for n, claim in enumerate(claims):
        env.process(claimant(n, *claim))
    for at, hops in bells:
        act(at, hops, lambda: lib.ep.post_event((None, "ok")))
    env.process(spinner())
    env.run(until)
    # A hold ends by the first boundary after its wake or doorbell.
    tie = any(start < t <= end + slice_ns and (t - start) % slice_ns == 0
              for start, end in holds for t in hopped)
    return (log, res.busy_time, env.events_processed, env.now), tie


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
    assert _returns(held) == _returns(sliced) == [(0, "ok")]


def test_events_processed_lags_inside_an_open_hold():
    """Stopped at 55 inside a hold that started at 0, the spin has run
    five 10 ns slices the hold has not yet added (a timer, a race and a
    claim each); run on, the hold ends at 100 and the counts agree."""
    run = (10, 0, [("wait", ("finish", 100, 0))], [], [])
    (_, _, held, _), _ = _simulate(run, use_spec=False, until=55)
    (_, _, sliced, _), _ = _simulate(run, use_spec=True, until=55)
    assert sliced - held == 3 * 5
    assert _simulate(run, use_spec=False) == _simulate(run, use_spec=True)
