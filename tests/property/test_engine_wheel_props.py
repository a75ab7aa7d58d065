"""Property-based tests: the timer-wheel engine equals a plain heap engine.

The wheel must be a pure representation change of the pending-event
queue: for *any* sequence of schedule / cancel / reschedule / trigger
operations, the wheel engine and the heap spec in ``heap_engine_spec.py``
must fire the same observers at the same simulated times in the same
order, process the same number of events, and leave the clock in the same
place — whether the run drains in one shot or is chopped into arbitrary
``run(until=...)`` segments (the segmented variant is what exercises the
wheel's deadline-jump resynchronisation).
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment

from tests.property import heap_engine_spec


# Delays are drawn to land in every wheel container: the ready FIFO (0),
# level 0 (<2**8 from now), levels 1-2, and the overflow heap (>=2**24),
# with values hugging the power-of-two boundaries where bucketing bugs live.
_DELAYS = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=250, max_value=70_000),
    st.sampled_from([255, 256, 257, 65_535, 65_536, 65_537,
                     16_777_215, 16_777_216, 16_777_217]),
    st.integers(min_value=70_000, max_value=40_000_000),
)

# An op batch executed at one instant by the driver process:
#   ("obs", delay)    observed timer — callback records (creation#, time)
#   ("quiet", delay)  unobserved timer — cancellation candidate
#   ("cancel", pick)  cancel a pending quiet timer (the wheel engine
#                     recycles it; the spec lets the dead entry pop — both
#                     count the pop identically)
#   ("event",)        immediately-succeeded bare event, also observed
#   ("burst", delay, k)  k observed timers sharing one expiry, so wheel
#                     slots hold several entries per expiry (a level-1
#                     slot of one expiry fires without passing level 0)
_OPS = st.one_of(
    st.tuples(st.just("obs"), _DELAYS),
    st.tuples(st.just("burst"), _DELAYS, st.integers(min_value=2, max_value=4)),
    st.tuples(st.just("quiet"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("event")),
)

_TRACES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=80_000),  # advance first
              st.lists(_OPS, max_size=5)),
    max_size=25,
)


def _run_trace(env_cls, trace, chunks=None):
    """Execute one trace; return (firing log, events processed, final now)."""
    env = env_cls()
    log = []
    quiet = []
    counter = [0]

    def driver():
        for advance, ops in trace:
            if advance:
                yield env.timeout(advance)
            for op in ops:
                kind = op[0]
                if kind == "obs":
                    counter[0] += 1
                    t = env.timeout(op[1])
                    t.callbacks.append(
                        lambda ev, n=counter[0]: log.append((n, env.now)))
                elif kind == "burst":
                    for _ in range(op[2]):
                        counter[0] += 1
                        t = env.timeout(op[1])
                        t.callbacks.append(
                            lambda ev, n=counter[0]: log.append((n, env.now)))
                elif kind == "quiet":
                    quiet.append(env.timeout(op[1]))
                elif kind == "cancel":
                    if quiet:
                        t = quiet.pop(op[1] % len(quiet))
                        if t.callbacks is not None:
                            t.cancel()
                elif kind == "event":
                    counter[0] += 1
                    env.event().succeed().callbacks.append(
                        lambda ev, n=counter[0]: log.append((n, env.now)))

    env.process(driver())
    if chunks is None:
        env.run()
    else:
        # Chop the drain into deadline segments; every boundary that lands
        # between pending expiries forces a clock jump (and, on the wheel,
        # a resync). Finish with a bare run for whatever remains.
        for chunk in chunks:
            if env.peek() is None:
                break
            env.run(until=env.now + chunk)
        env.run()
    return log, env.events_processed, env.now


@settings(max_examples=120, deadline=None)
@given(trace=_TRACES)
def test_wheel_equals_heap_engine(trace):
    assert (_run_trace(Environment, trace)
            == _run_trace(heap_engine_spec.Environment, trace))


@settings(max_examples=80, deadline=None)
@given(trace=_TRACES,
       chunks=st.lists(st.integers(min_value=1, max_value=9_000_000),
                       min_size=1, max_size=20))
def test_wheel_equals_heap_engine_in_deadline_segments(trace, chunks):
    assert (_run_trace(Environment, trace, chunks)
            == _run_trace(heap_engine_spec.Environment, trace, chunks))


@settings(max_examples=60, deadline=None)
@given(trace=_TRACES)
def test_debug_mode_equals_plain_mode(trace):
    # The checked dispatch loop must be semantically identical to the
    # specialized fast loops — and no generated trace may trip its
    # waiter-accounting or slot-ordering invariants.
    assert (_run_trace(lambda: Environment(debug=True), trace)
            == _run_trace(Environment, trace))
