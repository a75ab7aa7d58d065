"""Property-based tests: ``env.race(a, b)`` behaves as ``env.any_of([a, b])``.

:class:`repro.sim.Race` is the two-member form of :class:`repro.sim.AnyOf`
that the protocol timer races use.  Its value is the winning event rather
than a ``{event: value}`` dict, and that must be its only difference: for
random races over every kind of member — a pending event, a timeout, an
already-processed event, a failing event, and a member another process
also waits on — twin runs under ``Environment(debug=True)`` (which checks
waiter accounting on every dispatch) must dispatch the same events at the
same instants, pick the same winner, leave the loser with the same
``_waiters`` and ``_defused``, and recycle and reuse the same cancelled
timers.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment

# One member of a race: (kind, delay, shared)
#   "pending"    an event that succeeds ``delay`` ns after the race is built
#   "failing"    an event that fails ``delay`` ns after the race is built
#   "never"      an event that never triggers
#   "timeout"    env.timeout(delay), cancelled after the race if unshared
#   "processed"  an event that succeeded and was processed before the race
#   "processed_failed"  the same, but failed (and caught) before the race
# ``shared`` adds a second process that waits on the member too.
_KINDS = ("pending", "failing", "never", "timeout", "processed",
          "processed_failed")
_MEMBER = st.tuples(st.sampled_from(_KINDS), st.integers(0, 12),
                    st.booleans())
_RACE = st.tuples(_MEMBER, _MEMBER)
_RUNS = st.lists(st.lists(_RACE, min_size=1, max_size=6),
                 min_size=1, max_size=2)


class _Labels:
    """Names the events a run creates, so two runs' dispatches compare.

    Labelled objects are held alive, so an ``id`` is never reused while
    its label is in the table.
    """

    def __init__(self):
        self._table = {}

    def __call__(self, ev, label):
        self._table[id(ev)] = (ev, label)
        return ev

    def of(self, ev):
        entry = self._table.get(id(ev))
        if entry is not None and entry[0] is ev:
            return entry[1]
        return type(ev).__name__


def _simulate(races_per_proc, use_race):
    env = Environment(debug=True)
    label = _Labels()
    outcomes = []

    def watcher(ev):
        try:
            yield ev
        except RuntimeError:
            pass

    def member(tag, spec):
        kind, delay, shared = spec
        if kind == "timeout":
            ev = label(env.timeout(delay, value=tag), tag)
        else:
            ev = label(env.event(), tag)
            if kind in ("pending", "failing"):
                trig = label(env.timeout(delay), f"{tag}.trig")
                if kind == "pending":
                    trig.callbacks.append(lambda _t: ev.succeed(tag))
                else:
                    trig.callbacks.append(
                        lambda _t: ev.fail(RuntimeError(tag)))
        if shared:
            label(env.process(watcher(ev)), f"{tag}.watch")
        return ev

    def racer(p, races):
        for i, (spec_a, spec_b) in enumerate(races):
            tag = f"p{p}r{i}"
            a = member(f"{tag}a", spec_a)
            b = member(f"{tag}b", spec_b)
            for ev, (kind, _, _) in ((a, spec_a), (b, spec_b)):
                if kind == "processed":
                    ev.succeed("done")
                    yield ev
                elif kind == "processed_failed":
                    ev.fail(RuntimeError("early"))
                    try:
                        yield ev
                    except RuntimeError:
                        pass
            both_done = a.processed and b.processed
            cond = label(env.race(a, b) if use_race else env.any_of([a, b]),
                         f"{tag}.race")
            try:
                result = yield cond
            except RuntimeError as exc:
                outcome = ("fail", str(exc))
            else:
                if use_race:
                    assert result is a or result is b
                    winner = result
                else:
                    assert len(result) == 1 or both_done
                    winner = next(iter(result))
                outcome = ("ok", label.of(winner), winner.value)
            members = tuple((ev.processed, ev._waiters, ev._defused)
                            for ev in (a, b))
            cancels = tuple(
                ev.cancel() for ev, spec in ((a, spec_a), (b, spec_b))
                if spec[0] == "timeout" and not spec[2])
            outcomes.append((tag, env.now, outcome, members, cancels))

    for p, races in enumerate(races_per_proc):
        label(env.process(racer(p, races)), f"p{p}")

    log = []
    ready = env._ready
    while ready or env._advance_tick():
        log.append((env.now, label.of(ready[0])))
        env.step()
    return {
        "log": log,
        "outcomes": outcomes,
        "events_processed": env.events_processed,
        "now": env.now,
        "timeouts_recycled": env.timeouts_recycled,
        "timeouts_reused": env.timeouts_reused,
    }


@settings(max_examples=300, deadline=None)
@given(run=_RUNS)
def test_race_dispatches_like_two_member_anyof(run):
    assert _simulate(run, use_race=True) == _simulate(run, use_race=False)
