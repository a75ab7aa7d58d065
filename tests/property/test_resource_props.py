"""Property-based tests: the counted Resource equals the set-based spec.

:class:`repro.sim.Resource` counts its holders and marks each granted
request, so an uncontended claim and its release touch no set and no heap.
That must be a pure speed-up: for *any* sequence of claims at random
priorities, releases, cancels of queued claims, double releases and clock
advances, on capacities 1 to 3, it must grant the same claims in the same
order as ``resource_spec.py`` and report the same ``count``,
``queue_length``, ``total_grants``, ``busy_time`` and ``utilization()``.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource
from repro.sim.resources import Request

from tests.property import resource_spec as spec

# One step:
#   ("claim", priority, ctor)   claim a slot via request(), or via the
#                               Request(resource, priority) constructor
#   ("release", pick)           release some earlier claim: a holder, a
#                               queued claim (cancel) or a spent one
#                               (double release)
#   ("advance", ns)             move the clock on
_OPS = st.one_of(
    st.tuples(st.just("claim"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("release"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.integers(0, 400)),
)

_RUNS = st.tuples(st.integers(min_value=1, max_value=3),
                  st.lists(_OPS, max_size=80))


def _state(res, elapsed):
    return (res.count, res.queue_length, res.total_grants, res.busy_time,
            res.utilization(), res.utilization(elapsed))


@settings(max_examples=200, deadline=None)
@given(run=_RUNS)
def test_resource_equals_set_based_spec(run):
    capacity, ops = run
    env = Environment()
    real = Resource(env, capacity=capacity)
    ref = spec.Resource(lambda: env.now, capacity=capacity)
    claims = []        # (real request, spec request), in claim order
    real_grants = []   # claim indexes, in the order the grants fire
    for op in ops:
        kind = op[0]
        if kind == "claim":
            _, priority, ctor = op
            req = (Request(real, priority) if ctor
                   else real.request(priority))
            req.callbacks.append(
                lambda _ev, n=len(claims): real_grants.append(n))
            claims.append((req, ref.request(priority)))
        elif kind == "release" and claims:
            req, ref_req = claims[op[1] % len(claims)]
            req.release()
            ref_req.release()
        elif kind == "advance":
            env.run(until=env.now + op[1])
        env.run(until=env.now)  # deliver this step's grants
        index = {id(r): n for n, (_, r) in enumerate(claims)}
        assert real_grants == [index[id(r)] for r in ref.grant_log]
        assert _state(real, 1_000) == _state(ref, 1_000)
    for n, (req, ref_req) in enumerate(claims):
        assert req.triggered == ref_req.granted, n
