"""Open-MX stack configuration: pinning modes and protocol tunables.

``PinningMode`` enumerates the five strategies the paper's evaluation
compares (Figures 6 and 7):

* ``PIN_PER_COMM``  — "Regular Pinning" / "Pin once per Communication":
  the region is pinned synchronously when the request is submitted and
  unpinned when it completes.
* ``PERMANENT``     — "Permanent Pinning": pinned at first use and never
  unpinned (upper bound; unsafe without invalidation, used as a baseline).
* ``CACHE``         — the paper's decoupled pinning cache: regions stay
  declared (user-space LRU cache) and pinned (kernel) across uses; MMU
  notifiers unpin on invalidation; repinned on next use.
* ``OVERLAP``       — on-demand pinning overlapped with communication: the
  initiating message is sent before pinning starts; pages are pinned while
  the rendezvous round-trip and data transfer proceed.
* ``OVERLAP_CACHE`` — overlapped pinning plus the pinning cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.util.units import SECOND

__all__ = [
    "CACHE_LOOKUP_NS", "DATA_FRAME_PAYLOAD", "EAGER_MAX", "MATCH_COST_NS",
    "OpenMXConfig", "PIN_RETRY_BACKOFF_NS", "PIN_RETRY_MAX", "PULL_BLOCK",
    "PULL_WINDOW", "PinningMode", "RESEND_BACKOFF_CAP", "RESEND_BACKOFF_FACTOR",
    "RESEND_JITTER_FRAC",
]

# Protocol constants (MXoE values).  No experiment varies them, so they are
# module constants rather than OpenMXConfig fields.

# MXoE message classes: everything up to EAGER_MAX goes through the
# statically-pinned intermediate buffers; larger goes rendezvous.
EAGER_MAX = 32 * 1024
# Payload bytes per data frame (2 pages; fits a 9000-byte jumbo MTU).
DATA_FRAME_PAYLOAD = 8192
# Pull protocol: block size per pull request (a multiple of the frame
# payload), and how many pull requests the receiver keeps outstanding.
PULL_BLOCK = 64 * 1024
PULL_WINDOW = 2

# Exponential backoff on both retransmit timers: each consecutive
# unproductive round multiplies the timeout by RESEND_BACKOFF_FACTOR, capped
# at RESEND_BACKOFF_CAP times the base timeout.  A deterministic per-request
# jitter of up to RESEND_JITTER_FRAC of the delay desynchronizes
# retransmission bursts without an RNG.
RESEND_BACKOFF_FACTOR = 2.0
RESEND_BACKOFF_CAP = 8
RESEND_JITTER_FRAC = 0.1

# Pin-failure handling: retry a failed region pin up to PIN_RETRY_MAX times
# (transient ENOMEM, notifier cancellation), waiting PIN_RETRY_BACKOFF_NS
# (doubled per attempt) between tries; if the pin still fails but the
# addresses are valid, fall back to copying through the statically-pinned
# eager buffers instead of aborting.
PIN_RETRY_MAX = 2
PIN_RETRY_BACKOFF_NS = 100_000

CACHE_LOOKUP_NS = 250  # region cache: hash lookup + pinned-state check
MATCH_COST_NS = 500  # library matching + queue bookkeeping per message


class PinningMode(enum.Enum):
    PIN_PER_COMM = "pin-per-comm"
    PERMANENT = "permanent"
    CACHE = "cache"
    OVERLAP = "overlap"
    OVERLAP_CACHE = "overlap-cache"

    def __init__(self, value: str):
        # Plain member attributes, not properties: the driver reads them
        # per frame.
        #: Does this mode keep regions pinned across communications?
        self.cached = value in ("permanent", "cache", "overlap-cache")
        #: Does this mode overlap pinning with communication?
        self.overlapped = value in ("overlap", "overlap-cache")


@dataclass(frozen=True)
class OpenMXConfig:
    """The Open-MX settings an experiment, soak or test varies (defaults
    follow MXoE); the fixed protocol constants are module-level above."""

    pinning_mode: PinningMode = PinningMode.PIN_PER_COMM
    use_ioat: bool = False

    # Reliability.
    resend_timeout_ns: int = SECOND  # the paper's 1 s retransmission timeout
    max_resend_rounds: int = 8  # give up (error) after this many dead timeouts

    # Fair pin-budget admission (off by default: legacy behaviour is
    # reclaim-then-try, first caller to the budget wins).  When enabled, a
    # region pin first *reserves* its pages against the host's pinned-page
    # budget; if the budget is exhausted it joins a FIFO waiter queue
    # (starvation-free: nobody overtakes a budget-blocked waiter) for at
    # most ``pin_queue_wait_max_ns`` before the request degrades to the
    # copy-through fallback.  ``pin_queue_max_share`` caps the fraction of
    # the budget one owner (endpoint) may hold in reservations, so a single
    # heavy pinner cannot monopolize admission.  Kept because the torture
    # rotation (``repro.faults.torture.run_torture``) turns it on for every
    # odd seed, so its golden digests cover both admission policies.
    pin_queue_enabled: bool = False
    pin_queue_wait_max_ns: int = 2_000_000
    pin_queue_max_share: float = 1.0

    # User-space region cache (Section 3.2).
    region_cache_capacity: int = 64
    # Validate cache hits against the VMA creation generation of the hit
    # range (off by default: the paper's design needs no user-space
    # invalidation — kernel notifiers keep stale *pins* safe; the check
    # detects "same range, new backing" and turns the hit into a miss so
    # the descriptor table does not accumulate dead regions).  Kept because
    # the torture rotation (``repro.faults.torture.run_torture``) turns it on
    # for every seed divisible by 3, so its golden digests cover the
    # hit-turned-miss path that realloc-thrash episodes provoke.
    region_cache_validate: bool = False

    # Overlap bookkeeping: the per-packet watermark test the paper calls
    # "some additional tests on the region descriptor".
    overlap_check_ns: int = 30

    # Completion-spin granularity.  No experiment varies it; it stays a
    # field because the poll-spin twin property
    # (tests/property/test_poll_spin_props.py) draws it.
    poll_slice_ns: int = 5_000

    def __post_init__(self):
        if self.poll_slice_ns < 1:
            raise ValueError("poll_slice_ns must be >= 1")
        if self.overlap_check_ns < 0:
            raise ValueError("overlap_check_ns must be >= 0")
        if self.resend_timeout_ns < 1:
            raise ValueError("resend_timeout_ns must be >= 1")
        if self.max_resend_rounds < 0:
            raise ValueError("max_resend_rounds must be >= 0")
        if self.region_cache_capacity < 1:
            raise ValueError("region_cache_capacity must be >= 1")
        if self.pin_queue_wait_max_ns < 0:
            raise ValueError("pin_queue_wait_max_ns must be >= 0")
        if not 0.0 < self.pin_queue_max_share <= 1.0:
            raise ValueError("pin_queue_max_share must be in (0, 1]")

    def resend_delay_ns(self, dead_rounds: int, key: int = 0) -> int:
        """Retransmission delay after ``dead_rounds`` unproductive rounds.

        Exponential backoff with a deterministic jitter derived from ``key``
        (a request seq/handle) — no RNG, so simulations stay reproducible.
        """
        base = self.resend_timeout_ns
        delay = min(int(base * RESEND_BACKOFF_FACTOR ** dead_rounds),
                    RESEND_BACKOFF_CAP * base)
        # Knuth multiplicative hash over (key, round): spreads timers
        # without PYTHONHASHSEED-dependent behaviour.
        h = ((key * 2654435761 + dead_rounds * 40503 + 12345)
             & 0xFFFFFFFF)
        delay += int(delay * RESEND_JITTER_FRAC * h / 0xFFFFFFFF)
        return max(delay, 1)
