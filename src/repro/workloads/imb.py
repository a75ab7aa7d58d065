"""Intel MPI Benchmarks (IMB) drivers.

Implements the benchmarks the paper evaluates: PingPong (Figures 6/7) and
the collectives of Table 2 (SendRecv, Allgatherv, Broadcast, Reduce,
Allreduce, Reduce_scatter, Exchange).  Each driver runs all ranks as
simulation processes, times a barrier-delimited loop of the operation, and
reports the mean per-iteration time — the IMB methodology.

The simulation is deterministic, so a couple of measured iterations after a
warm-up iteration give exact steady-state numbers; no statistical repetition
is needed.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass

from repro.cluster.builder import Cluster
from repro.mpi import (
    Communicator,
    RankComm,
    allgatherv,
    allreduce,
    barrier,
    bcast,
    exchange,
    reduce,
    reduce_scatter,
    sendrecv_ring,
)
from repro.util.units import throughput_mib_s

__all__ = [
    "COLLECTIVE_BENCHMARKS",
    "ImbResult",
    "imb_collective",
    "imb_pingping",
    "imb_pingpong",
]


@dataclass(frozen=True)
class ImbResult:
    """One benchmark measurement."""

    benchmark: str
    nbytes: int
    iterations: int
    per_iter_ns: float

    @property
    def throughput_mib_s(self) -> float:
        return throughput_mib_s(self.nbytes, int(self.per_iter_ns))


def imb_pingpong(cluster: Cluster, nbytes: int, iterations: int = 3,
                 warmup: int = 1) -> ImbResult:
    """IMB PingPong between rank 0 (node 0) and rank 1 (node 1).

    Returns the mean one-way transfer time, the quantity Figures 6 and 7
    plot as throughput.
    """
    comm = Communicator([cluster.lib(0), cluster.lib(1)])
    env = cluster.env
    r0, r1 = comm.rank(0), comm.rank(1)
    buf0, buf1 = r0.alloc(nbytes), r1.alloc(nbytes)
    r0.write(buf0, b"\xab" * nbytes)
    marks: dict[str, int] = {}

    def rank0():
        for i in range(warmup + iterations):
            if i == warmup:
                marks["t0"] = env.now
            yield from r0.send(buf0, nbytes, dest=1, tag=1)
            yield from r0.recv(buf0, nbytes, src=1, tag=2)
        marks["t1"] = env.now

    def rank1():
        for _ in range(warmup + iterations):
            yield from r1.recv(buf1, nbytes, src=0, tag=1)
            yield from r1.send(buf1, nbytes, dest=0, tag=2)

    done = env.all_of([env.process(rank0()), env.process(rank1())])
    env.run(until=done)
    # Each iteration is one round trip = two one-way transfers.
    per_oneway = (marks["t1"] - marks["t0"]) / iterations / 2
    return ImbResult("PingPong", nbytes, iterations, per_oneway)


def imb_pingping(cluster: Cluster, nbytes: int, iterations: int = 3,
                 warmup: int = 1) -> ImbResult:
    """IMB PingPing: both ranks send simultaneously, then receive.

    Unlike PingPong, the wire carries traffic in both directions at once,
    so per-message CPU costs (pinning included) overlap less with idle
    waiting — a harsher case for the optimizations.
    """
    comm = Communicator([cluster.lib(0), cluster.lib(1)])
    env = cluster.env
    marks: dict[int, tuple[int, int]] = {}
    bufs = {}
    for rc in comm.ranks():
        bufs[rc.rank] = (rc.alloc(nbytes), rc.alloc(nbytes))
        rc.write(bufs[rc.rank][0], b"\xcd" * nbytes)

    def body(rc):
        send_buf, recv_buf = bufs[rc.rank]
        peer = 1 - rc.rank
        t0 = None
        for i in range(warmup + iterations):
            if i == warmup:
                t0 = env.now
            sreq = yield from rc.isend(send_buf, nbytes, peer, tag=i)
            rreq = yield from rc.irecv(recv_buf, nbytes, peer, tag=i)
            yield from rc.wait(sreq)
            yield from rc.wait(rreq)
        marks[rc.rank] = (t0, env.now)

    done = env.all_of([env.process(body(rc)) for rc in comm.ranks()])
    env.run(until=done)
    per_iter = max(t1 - t0 for t0, t1 in marks.values()) / iterations
    return ImbResult("PingPing", nbytes, iterations, per_iter)


def _timed_loop(cluster: Cluster, comm: Communicator, nbytes: int,
                iterations: int, warmup: int,
                op: Callable[[RankComm, int], Generator],
                name: str) -> ImbResult:
    """Run ``op(rank, iteration)`` on every rank inside a timed loop."""
    env = cluster.env
    marks: dict[int, tuple[int, int]] = {}

    def body(rc: RankComm):
        yield from barrier(rc)
        t0 = None
        for i in range(warmup + iterations):
            if i == warmup:
                yield from barrier(rc)
                t0 = env.now
            yield from op(rc, i)
        marks[rc.rank] = (t0, env.now)

    done = env.all_of([env.process(body(rc)) for rc in comm.ranks()])
    env.run(until=done)
    per_iter = max(t1 - t0 for t0, t1 in marks.values()) / iterations
    return ImbResult(name, nbytes, iterations, per_iter)


def imb_collective(cluster: Cluster, benchmark: str, nbytes: int,
                   nranks: int | None = None, iterations: int = 2,
                   warmup: int = 1) -> ImbResult:
    """Run one of the Table 2 collectives at message size ``nbytes``.

    ``nbytes`` is the per-rank payload (the IMB message-size column).
    """
    libs = cluster.all_libs()
    if nranks is not None:
        libs = libs[:nranks]
    comm = Communicator(libs)
    size = comm.size
    factory = COLLECTIVE_BENCHMARKS.get(benchmark)
    if factory is None:
        raise ValueError(
            f"unknown benchmark {benchmark!r}; choose from "
            f"{sorted(COLLECTIVE_BENCHMARKS)}"
        )
    op = factory(comm, nbytes)
    return _timed_loop(cluster, comm, nbytes, iterations, warmup, op, benchmark)


# -- benchmark factories ------------------------------------------------------
# Each factory allocates the rank buffers once (IMB reuses buffers across
# iterations — exactly the reuse pattern that makes the pinning cache pay off)
# and returns op(rank, iteration).


def _mk_sendrecv(comm: Communicator, nbytes: int):
    bufs = {rc.rank: (rc.alloc(nbytes), rc.alloc(nbytes)) for rc in comm.ranks()}

    def op(rc: RankComm, _i: int) -> Generator:
        s, r = bufs[rc.rank]
        yield from sendrecv_ring(rc, s, r, nbytes)

    return op


def _mk_exchange(comm: Communicator, nbytes: int):
    bufs = {rc.rank: (rc.alloc(nbytes), rc.alloc(2 * nbytes)) for rc in comm.ranks()}

    def op(rc: RankComm, _i: int) -> Generator:
        s, r = bufs[rc.rank]
        yield from exchange(rc, s, r, nbytes)

    return op


def _mk_bcast(comm: Communicator, nbytes: int):
    bufs = {rc.rank: rc.alloc(nbytes) for rc in comm.ranks()}

    def op(rc: RankComm, i: int) -> Generator:
        yield from bcast(rc, bufs[rc.rank], nbytes, root=i % comm.size)

    return op


def _mk_reduce(comm: Communicator, nbytes: int):
    n = nbytes & ~7
    bufs = {rc.rank: (rc.alloc(n), rc.alloc(n)) for rc in comm.ranks()}

    def op(rc: RankComm, i: int) -> Generator:
        s, r = bufs[rc.rank]
        yield from reduce(rc, s, r, n, root=i % comm.size)

    return op


def _mk_allreduce(comm: Communicator, nbytes: int):
    n = nbytes & ~7
    bufs = {rc.rank: (rc.alloc(n), rc.alloc(n)) for rc in comm.ranks()}

    def op(rc: RankComm, _i: int) -> Generator:
        s, r = bufs[rc.rank]
        yield from allreduce(rc, s, r, n)

    return op


def _mk_reduce_scatter(comm: Communicator, nbytes: int):
    # IMB semantics: each rank contributes nbytes total, receives its share.
    chunk = (nbytes // comm.size) & ~7
    chunk = max(chunk, 8)
    total = chunk * comm.size
    bufs = {rc.rank: (rc.alloc(total), rc.alloc(chunk)) for rc in comm.ranks()}

    def op(rc: RankComm, _i: int) -> Generator:
        s, r = bufs[rc.rank]
        yield from reduce_scatter(rc, s, r, chunk)

    return op


def _mk_allgatherv(comm: Communicator, nbytes: int):
    counts = [nbytes] * comm.size
    total = sum(counts)
    bufs = {rc.rank: (rc.alloc(nbytes), rc.alloc(total)) for rc in comm.ranks()}

    def op(rc: RankComm, _i: int) -> Generator:
        s, r = bufs[rc.rank]
        yield from allgatherv(rc, s, nbytes, r, counts)

    return op


COLLECTIVE_BENCHMARKS: dict[str, Callable] = {
    "SendRecv": _mk_sendrecv,
    "Exchange": _mk_exchange,
    "Broadcast": _mk_bcast,
    "Reduce": _mk_reduce,
    "Allreduce": _mk_allreduce,
    "Reduce_scatter": _mk_reduce_scatter,
    "Allgatherv": _mk_allgatherv,
}
