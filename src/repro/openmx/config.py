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

__all__ = ["OpenMXConfig", "PinningMode"]


class PinningMode(enum.Enum):
    PIN_PER_COMM = "pin-per-comm"
    PERMANENT = "permanent"
    CACHE = "cache"
    OVERLAP = "overlap"
    OVERLAP_CACHE = "overlap-cache"

    @property
    def cached(self) -> bool:
        """Does this mode keep regions pinned across communications?"""
        return self in (PinningMode.PERMANENT, PinningMode.CACHE,
                        PinningMode.OVERLAP_CACHE)

    @property
    def overlapped(self) -> bool:
        """Does this mode overlap pinning with communication?"""
        return self in (PinningMode.OVERLAP, PinningMode.OVERLAP_CACHE)


@dataclass(frozen=True)
class OpenMXConfig:
    """Protocol and implementation tunables (defaults follow MXoE)."""

    pinning_mode: PinningMode = PinningMode.PIN_PER_COMM
    use_ioat: bool = False

    # MXoE message classes: everything up to eager_max goes through the
    # statically-pinned intermediate buffers; larger goes rendezvous.
    eager_max: int = 32 * 1024
    # Payload bytes per data frame (2 pages; fits a 9000-byte jumbo MTU).
    data_frame_payload: int = 8192
    # Pull protocol: block size per pull request, and how many pull
    # requests the receiver keeps outstanding.
    pull_block: int = 64 * 1024
    pull_window: int = 2

    # Reliability.
    resend_timeout_ns: int = SECOND  # the paper's 1 s retransmission timeout
    max_resend_rounds: int = 8  # give up (error) after this many dead timeouts
    # Exponential backoff on both retransmit timers: each consecutive
    # unproductive round multiplies the timeout by ``resend_backoff_factor``
    # (1.0 restores the paper's fixed timer), capped at
    # ``resend_backoff_cap_ns`` (None: 8x the base timeout).  A deterministic
    # per-request jitter of up to ``resend_jitter_frac`` of the delay
    # desynchronizes retransmission bursts without an RNG.
    resend_backoff_factor: float = 2.0
    resend_backoff_cap_ns: int | None = None
    resend_jitter_frac: float = 0.1
    # Pin-failure handling: retry a failed region pin up to ``pin_retry_max``
    # times (transient ENOMEM, notifier cancellation), waiting
    # ``pin_retry_backoff_ns`` (doubled per attempt) between tries; if the
    # pin still fails but the addresses are valid, fall back to copying
    # through the statically-pinned eager buffers instead of aborting.
    pin_retry_max: int = 2
    pin_retry_backoff_ns: int = 100_000
    pin_fallback_to_copy: bool = True

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
    cache_lookup_ns: int = 250  # hash lookup + pinned-state check
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

    # Extensions the paper proposes as future work:
    # Section 4.3: "pinning a few pages synchronously anyway before sending
    # the initiating message to reduce the chance of getting some
    # overlap-misses".  0 disables the synchronous prefix.
    overlap_sync_pages: int = 0
    # Section 5: only enable overlapped pinning for *blocking* operations
    # (they gain the most; overlap-aware applications prefer the simple
    # model with lower overhead).
    adaptive_overlap: bool = False

    # Library behaviour.
    poll_slice_ns: int = 5_000  # completion-spin granularity
    match_cost_ns: int = 500  # matching + queue bookkeeping per message

    def __post_init__(self):
        if self.data_frame_payload <= 0:
            raise ValueError("data_frame_payload must be positive")
        if self.pull_block % self.data_frame_payload:
            raise ValueError("pull_block must be a multiple of the frame payload")
        if self.pull_window < 1:
            raise ValueError("pull_window must be >= 1")
        if self.eager_max < 0:
            raise ValueError("eager_max must be >= 0")
        if self.resend_backoff_factor < 1.0:
            raise ValueError("resend_backoff_factor must be >= 1.0")
        if not 0.0 <= self.resend_jitter_frac < 1.0:
            raise ValueError("resend_jitter_frac must be in [0, 1)")
        if self.pin_retry_max < 0:
            raise ValueError("pin_retry_max must be >= 0")

    def resend_delay_ns(self, dead_rounds: int, key: int = 0) -> int:
        """Retransmission delay after ``dead_rounds`` unproductive rounds.

        Exponential backoff with a deterministic jitter derived from ``key``
        (a request seq/handle) — no RNG, so simulations stay reproducible.
        """
        base = self.resend_timeout_ns
        cap = (self.resend_backoff_cap_ns if self.resend_backoff_cap_ns
               is not None else 8 * base)
        delay = min(int(base * self.resend_backoff_factor ** dead_rounds), cap)
        if self.resend_jitter_frac > 0.0:
            # Knuth multiplicative hash over (key, round): spreads timers
            # without PYTHONHASHSEED-dependent behaviour.
            h = ((key * 2654435761 + dead_rounds * 40503 + 12345)
                 & 0xFFFFFFFF)
            delay += int(delay * self.resend_jitter_frac * h / 0xFFFFFFFF)
        return max(delay, 1)
