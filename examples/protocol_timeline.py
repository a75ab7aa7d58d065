#!/usr/bin/env python
"""Print the paper's protocol timelines (Figures 2, 3 and 5) as traces.

Three scenarios:
  1. Regular rendezvous (Figure 2): pin BEFORE the rndv leaves.
  2. Overlapped rendezvous (Figure 5): rndv first, pin concurrent with the
     round-trip and the data transfer.
  3. Decoupled pinning cache (Figure 3): declare -> pin -> cache hit ->
     free -> MMU-notifier invalidation -> realloc -> cache hit -> repin.

Run:  python examples/protocol_timeline.py
"""

from repro.experiments.timelines import (
    run_decoupled_timeline,
    run_rendezvous_timeline,
)
from repro.openmx import PinningMode

INTERESTING = {
    "declare_region", "send_pinned", "send_rndv", "recv_pinned",
    "pull_request", "notify_sent", "notify_received", "malloc", "free",
    "overlap_miss_send", "overlap_miss_recv",
}


def show(title: str, result, limit: int = 14) -> None:
    print(f"\n=== {title} ===")
    shown = 0
    for mark in result.marks:
        if mark.name in INTERESTING and shown < limit:
            extra = " ".join(f"{k}={v}" for k, v in mark.attrs.items())
            print(f"  [{mark.start_ns:>12} ns] {mark.source:<20} "
                  f"{mark.name:<24} {extra}")
            shown += 1


def main() -> None:
    regular = run_rendezvous_timeline(PinningMode.PIN_PER_COMM)
    show("Figure 2: regular rendezvous (pin before rndv)", regular)
    assert regular.first_time("send_pinned") < regular.first_time("send_rndv")

    overlapped = run_rendezvous_timeline(PinningMode.OVERLAP)
    show("Figure 5: overlapped pinning (rndv before pin completes)", overlapped)
    assert overlapped.first_time("send_rndv") < overlapped.first_time("send_pinned")
    print(f"  -> rndv left {overlapped.first_time('send_pinned') - overlapped.first_time('send_rndv')} ns before the pin completed")

    decoupled = run_decoupled_timeline()
    show("Figure 3: decoupled on-demand pinning with region cache", decoupled, 20)
    c = decoupled.counters
    print(f"  -> cache hits={c.get('region_cache_hit', 0)} "
          f"misses={c.get('region_cache_miss', 0)} "
          f"invalidations={c.get('invalidate_unpinned', 0)} "
          f"pins={c.get('region_pinned', 0)} (repin after free+realloc)")


if __name__ == "__main__":
    main()
