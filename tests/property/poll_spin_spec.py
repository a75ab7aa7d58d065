"""Executable spec of the completion spin: one claim per poll slice.

The property tests in ``test_poll_spin_props.py`` run
:meth:`repro.openmx.OmxLib._spin` against :func:`spin`.  It is the spin as
it was written before holds: every slice claims the core, races the
doorbell against a fresh ``poll_slice_ns`` timer and gives the core back,
so a claimant queued behind it gets the core at the next slice boundary.
``lib`` is anything with the attributes ``OmxLib._spin`` reads (``ep``,
``proc.core``, ``env``, ``config.poll_slice_ns``, ``_progress_drain``).
Do not "improve" it: its value is that it is the slow, obvious form.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.hw.cpu import PRIO_USER

__all__ = ["spin"]


def spin(lib, req) -> Generator:
    """Poll slices until ``req`` completes and return its status; with
    ``req`` None, spin at most one slice."""
    ep = lib.ep
    queue = ep.event_queue
    claim = lib.proc.core.request
    env = lib.env
    slice_ns = lib.config.poll_slice_ns
    while True:
        if req is not None:
            if req.done:
                return req.status
            if len(queue):
                yield from lib._progress_drain()
                if req.done:
                    return req.status
        elif len(queue):
            return None
        doorbell = ep.refresh_doorbell()
        with claim(PRIO_USER) as r:
            yield r
            timer = env.timeout(slice_ns)
            yield env.race(doorbell, timer)
            timer.cancel()
        if req is None:
            return None
