"""Protocol timelines — Figures 2, 3 and 5 of the paper.

These experiments run a single scripted scenario with tracing enabled and
return the ordered protocol events, so the paper's timeline figures can be
checked as *assertions* (tests) and printed for humans (examples):

* Figure 2 — regular rendezvous: pin happens before the rndv leaves.
* Figure 5 — overlapped rendezvous: the rndv leaves first, pinning
  completes while the transfer proceeds.
* Figure 3 — decoupled on-demand pinning with the region cache: declare,
  pin at first use, cache hit, free → MMU-notifier invalidation → unpin,
  re-allocate → cache hit again → repin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import build_cluster
from repro.obs.spans import Span, render_span_tree
from repro.openmx import OpenMXConfig, PinningMode
from repro.util.units import MIB

__all__ = ["TimelineResult", "run_rendezvous_timeline", "run_decoupled_timeline"]


@dataclass(frozen=True)
class TimelineResult:
    marks: list[Span]
    counters: dict[str, int]
    spans: list[Span]

    def events(self, source_substr: str = "") -> list[str]:
        return [m.name for m in self.marks if source_substr in m.source]

    def first_time(self, event: str) -> int:
        for m in self.marks:
            if m.name == event:
                return m.start_ns
        raise KeyError(event)

    def render_spans(self) -> str:
        """Span trees by source board (rndv → pin / pull[i] → copy / notify)."""
        by_source: dict[str, list[Span]] = {}
        for span in self.spans:
            by_source.setdefault(span.source, []).append(span)
        return "\n".join(f"== {source} ==\n{render_span_tree(spans)}"
                         for source, spans in by_source.items())


def _collect(cluster) -> TimelineResult:
    counters: dict[str, int] = {}
    for node in cluster.nodes:
        for k, v in node.driver.counters.as_dict().items():
            counters[k] = counters.get(k, 0) + v
    return TimelineResult(cluster.spans.marks(), counters,
                          cluster.spans.spans())


def run_rendezvous_timeline(mode: PinningMode,
                            nbytes: int = 4 * MIB) -> TimelineResult:
    """One large transfer host0 -> host1 with full tracing (Figures 2/5)."""
    cluster = build_cluster(config=OpenMXConfig(pinning_mode=mode), trace=True)
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    sbuf, rbuf = sp.malloc(nbytes), rp.malloc(nbytes)
    sp.write(sbuf, b"T" * nbytes)

    def sender():
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, 1)
        yield from s.wait(req)

    def receiver():
        req = yield from r.irecv(rbuf, nbytes, 1)
        yield from r.wait(req)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    return _collect(cluster)


def run_decoupled_timeline(nbytes: int = 2 * MIB) -> TimelineResult:
    """The Figure 3 scenario on the decoupled pinning cache.

    host0 sends the same buffer twice (miss then hit), frees it (the MMU
    notifier unpins), reallocates the same-sized buffer and sends again
    (cache hit at the library, repin in the driver).
    """
    cluster = build_cluster(
        config=OpenMXConfig(pinning_mode=PinningMode.CACHE), trace=True
    )
    env = cluster.env
    s, r = cluster.lib(0), cluster.lib(1)
    sp, rp = cluster.nodes[0].procs[0], cluster.nodes[1].procs[0]
    rbuf = rp.malloc(nbytes)

    def one_send(sbuf, tag):
        req = yield from s.isend(sbuf, nbytes, r.board, r.endpoint_id, tag)
        yield from s.wait(req)

    def one_recv(tag):
        req = yield from r.irecv(rbuf, nbytes, tag)
        yield from r.wait(req)

    def sender():
        sbuf = sp.malloc(nbytes)
        sp.write(sbuf, b"1" * nbytes)
        cluster.spans.mark(env.now, "app", "malloc", va=sbuf)
        yield from one_send(sbuf, 1)  # declare + pin (cache miss)
        yield from one_send(sbuf, 2)  # cache hit, already pinned
        cluster.spans.mark(env.now, "app", "free", va=sbuf)
        sp.free(sbuf)  # munmap -> MMU notifier -> unpin
        sbuf2 = sp.malloc(nbytes)  # same size: allocator reuses the VA
        cluster.spans.mark(env.now, "app", "malloc", va=sbuf2, reused=sbuf2 == sbuf)
        sp.write(sbuf2, b"3" * nbytes)
        yield from one_send(sbuf2, 3)  # repin on demand

    def receiver():
        for tag in (1, 2, 3):
            yield from one_recv(tag)

    done = env.all_of([env.process(sender()), env.process(receiver())])
    env.run(until=done)
    return _collect(cluster)
