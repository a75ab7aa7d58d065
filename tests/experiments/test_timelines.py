"""Tests asserting the paper's timeline figures (2, 3 and 5) hold."""

import pytest

from repro.experiments.timelines import (
    run_decoupled_timeline,
    run_rendezvous_timeline,
)
from repro.openmx import PinningMode


def test_figure2_regular_rendezvous_order():
    t = run_rendezvous_timeline(PinningMode.PIN_PER_COMM)
    # Sender: declare -> pin -> rndv (Figure 2 ordering).
    assert t.first_time("declare_region") < t.first_time("send_pinned")
    assert t.first_time("send_pinned") < t.first_time("send_rndv")
    # Receiver pins before its first pull request.
    assert t.first_time("recv_pinned") < t.first_time("pull_request")
    assert t.first_time("notify_sent") < t.first_time("notify_received")


def test_figure5_overlapped_rendezvous_order():
    t = run_rendezvous_timeline(PinningMode.OVERLAP)
    # The initiating message leaves before the pin completes (Figure 5)...
    assert t.first_time("send_rndv") < t.first_time("send_pinned")
    # ...and pull requests are already flowing before the receiver's pin is
    # done (no recv_pinned event precedes the first pull_request).
    pulls = [m.start_ns for m in t.marks if m.name == "pull_request"]
    pinned = [m.start_ns for m in t.marks if m.name == "recv_pinned"]
    assert pulls and (not pinned or pulls[0] < pinned[0])
    # And no packets were lost to overlap misses under this regular load.
    assert t.counters.get("overlap_miss_send", 0) == 0
    assert t.counters.get("overlap_miss_recv", 0) == 0


def test_overlap_hides_most_of_the_pin_cost():
    regular = run_rendezvous_timeline(PinningMode.PIN_PER_COMM)
    overlapped = run_rendezvous_timeline(PinningMode.OVERLAP)
    # Exposed pin latency before the initiating message:
    exposed_regular = regular.first_time("send_rndv")
    exposed_overlap = overlapped.first_time("send_rndv")
    assert exposed_overlap < exposed_regular / 10


def test_figure3_decoupled_cache_lifecycle():
    t = run_decoupled_timeline()
    c = t.counters
    # Two declaration misses (sender + receiver region), then hits.
    assert c["region_cache_miss"] == 2
    assert c["region_cache_hit"] >= 3
    # The free() fired exactly one notifier invalidation that unpinned.
    assert c["invalidate_unpinned"] == 1
    # Three pins total: first use (x2 sides) + the repin after realloc.
    assert c["region_pinned"] == 3
    # The app's free and the following malloc reused the same VA.
    mallocs = [m for m in t.marks if m.name == "malloc"]
    assert mallocs[-1].attrs.get("reused") is True


def test_timeline_events_are_time_ordered():
    t = run_rendezvous_timeline(PinningMode.CACHE)
    times = [m.start_ns for m in t.marks]
    assert times == sorted(times)
    assert "declare_region" in t.events()
