"""Executable spec of pull-reply loss detection: full scans from chunk 0.

The property tests in ``test_pull_loss_props.py`` run the driver's
``_PullState`` against this module.  It states the rule of the paper's
footnote 4 in its plainest form, scanning every requested chunk on every
call, as the driver did before it kept a received-prefix watermark:

* a chunk is *evidently lost* by the arrival of ``chunk`` when it lies
  below ``chunk``, was requested (it is below ``requested_chunks``), is
  still missing, and its last request went out no later than the
  arriving chunk's last request;
* the fallback timer resends every requested chunk still missing;
* a block is complete when every one of its chunks has been received.

Every list is ascending.  The module imports nothing from :mod:`repro`,
so a bug there cannot leak into the reference.  Do not "improve" it: its
value is that it is the slow, obvious form.
"""

from __future__ import annotations

__all__ = ["block_complete", "evidently_lost", "unreceived"]


def evidently_lost(received: list[bool], last_request_ns: list[int],
                   requested_chunks: int, chunk: int) -> list[int]:
    req_time = last_request_ns[chunk]
    return [
        c
        for c in range(min(chunk, requested_chunks))
        if not received[c] and last_request_ns[c] <= req_time
    ]


def unreceived(received: list[bool], requested_chunks: int) -> list[int]:
    return [c for c in range(requested_chunks) if not received[c]]


def block_complete(received: list[bool], block_chunks: int,
                   block: int) -> bool:
    lo = block * block_chunks
    return all(received[lo:lo + block_chunks])
