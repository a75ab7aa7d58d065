"""MPI collectives over the point-to-point layer.

These are the operations the paper's Table 2 benchmarks (IMB SendRecv,
Allgatherv, Broadcast, Reduce, Allreduce, Reduce_scatter, Exchange), built
with the textbook algorithms MPI implementations of the era used:

* broadcast / reduce — binomial trees,
* allreduce — reduce to rank 0 then broadcast,
* reduce_scatter — reduce then scatter of the per-rank pieces,
* allgatherv — ring (size-1 steps, good for large payloads),
* sendrecv / exchange — the IMB ring patterns,
* barrier — dissemination.

Reduction arithmetic operates on float64 vectors with a modelled CPU cost
(`REDUCE_BYTES_PER_SEC`), and actually computes the sums, so correctness is
testable against numpy.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.mpi.comm import RankComm
from repro.util.units import transfer_time_ns

__all__ = [
    "allgatherv",
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "exchange",
    "gather",
    "gatherv",
    "reduce",
    "reduce_scatter",
    "scatter",
    "scatterv",
    "sendrecv_ring",
]

# Sustained rate of the summation loop (reads two streams, writes one).
REDUCE_BYTES_PER_SEC = 2.0e9


def _charge_reduce(rc: RankComm, nbytes: int) -> Generator:
    yield from rc.proc.core.execute_sliced(
        transfer_time_ns(nbytes, REDUCE_BYTES_PER_SEC), priority=10
    )


def _sum_into(rc: RankComm, dst_va: int, src_va: int, nbytes: int) -> None:
    a = np.frombuffer(rc.read(dst_va, nbytes), dtype=np.float64).copy()
    b = np.frombuffer(rc.read(src_va, nbytes), dtype=np.float64)
    a += b
    rc.write(dst_va, a)


def bcast(rc: RankComm, va: int, nbytes: int, root: int = 0) -> Generator:
    """Binomial-tree broadcast of ``nbytes`` from ``root``."""
    ctx = rc.next_collective_context()
    size, rank = rc.size, rc.rank
    vrank = (rank - root) % size  # virtual rank with root at 0
    mask = 1
    # Receive phase: find my parent.
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            req = yield from rc.irecv(va, nbytes, parent, tag=0, context=ctx)
            yield from rc.wait(req)
            break
        mask <<= 1
    # Send phase: forward to children.
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            child = (vrank + mask + root) % size
            req = yield from rc.isend(va, nbytes, child, tag=0, context=ctx)
            yield from rc.wait(req)
        mask >>= 1


def reduce(rc: RankComm, send_va: int, recv_va: int, nbytes: int,
           root: int = 0) -> Generator:
    """Binomial-tree sum-reduction of float64 vectors to ``root``."""
    if nbytes % 8:
        raise ValueError("reduce operates on float64 vectors (8-byte multiple)")
    ctx = rc.next_collective_context()
    size, rank = rc.size, rc.rank
    vrank = (rank - root) % size
    # Accumulate into a scratch buffer so send_va stays untouched.
    acc = rc.scratch_acquire(nbytes)
    tmp = rc.scratch_acquire(nbytes)
    rc.write(acc, rc.read(send_va, nbytes))
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            req = yield from rc.isend(acc, nbytes, parent, tag=0, context=ctx)
            yield from rc.wait(req)
            break
        partner = vrank | mask
        if partner < size:
            src = (partner + root) % size
            req = yield from rc.irecv(tmp, nbytes, src, tag=0, context=ctx)
            yield from rc.wait(req)
            yield from _charge_reduce(rc, nbytes)
            _sum_into(rc, acc, tmp, nbytes)
        mask <<= 1
    if rank == root:
        rc.write(recv_va, rc.read(acc, nbytes))
    rc.scratch_release(acc, nbytes)
    rc.scratch_release(tmp, nbytes)


def allreduce(rc: RankComm, send_va: int, recv_va: int,
              nbytes: int) -> Generator:
    """Sum-allreduce: reduce to rank 0, then broadcast."""
    yield from reduce(rc, send_va, recv_va, nbytes, root=0)
    yield from bcast(rc, recv_va, nbytes, root=0)


def reduce_scatter(rc: RankComm, send_va: int, recv_va: int,
                   chunk_bytes: int) -> Generator:
    """Reduce ``size * chunk_bytes`` and scatter one chunk per rank."""
    size, rank = rc.size, rc.rank
    total = size * chunk_bytes
    full = rc.scratch_acquire(total)
    yield from reduce(rc, send_va, full, total, root=0)
    ctx = rc.next_collective_context()
    if rank == 0:
        rc.write(recv_va, rc.read(full, chunk_bytes))
        reqs = []
        for dest in range(1, size):
            piece = rc.scratch_acquire(chunk_bytes)
            rc.write(piece, rc.read(full + dest * chunk_bytes, chunk_bytes))
            req = yield from rc.isend(piece, chunk_bytes, dest, tag=0, context=ctx)
            reqs.append((req, piece))
        for req, piece in reqs:
            yield from rc.wait(req)
            rc.scratch_release(piece, chunk_bytes)
    else:
        req = yield from rc.irecv(recv_va, chunk_bytes, 0, tag=0, context=ctx)
        yield from rc.wait(req)
    rc.scratch_release(full, total)


def allgatherv(rc: RankComm, send_va: int, send_bytes: int, recv_va: int,
               counts: list[int]) -> Generator:
    """Ring allgatherv: after size-1 steps every rank holds every block.

    ``recv_va`` receives the concatenation of all ranks' blocks in rank
    order; ``counts[r]`` is rank r's block size.
    """
    size, rank = rc.size, rc.rank
    if len(counts) != size:
        raise ValueError("counts must have one entry per rank")
    if counts[rank] != send_bytes:
        raise ValueError("counts[rank] must equal send_bytes")
    ctx = rc.next_collective_context()
    offsets = [sum(counts[:r]) for r in range(size)]
    # Place my own block.
    rc.write(recv_va + offsets[rank], rc.read(send_va, send_bytes))
    right = (rank + 1) % size
    left = (rank - 1) % size
    # At step s, send the block that originated at rank (rank - s) mod size.
    for step in range(size - 1):
        out_block = (rank - step) % size
        in_block = (rank - step - 1) % size
        out_va = recv_va + offsets[out_block]
        in_va = recv_va + offsets[in_block]
        rreq = yield from rc.irecv(in_va, counts[in_block], left, tag=step,
                                   context=ctx)
        sreq = yield from rc.isend(out_va, counts[out_block], right, tag=step,
                                   context=ctx)
        yield from rc.wait(sreq)
        yield from rc.wait(rreq)


def alltoall(rc: RankComm, send_va: int, recv_va: int,
             chunk_bytes: int) -> Generator:
    """Shifted-exchange all-to-all of equal chunks (works for any size)."""
    size, rank = rc.size, rc.rank
    rc.next_collective_context()  # keep epochs aligned across ranks
    rc.write(recv_va + rank * chunk_bytes,
             rc.read(send_va + rank * chunk_bytes, chunk_bytes))
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        yield from rc.sendrecv(
            send_va + dst * chunk_bytes, chunk_bytes, dst,
            recv_va + src * chunk_bytes, chunk_bytes, src,
            tag=step,
        )


def sendrecv_ring(rc: RankComm, send_va: int, recv_va: int,
                  nbytes: int) -> Generator:
    """IMB SendRecv: send to the right neighbour, receive from the left."""
    right = (rc.rank + 1) % rc.size
    left = (rc.rank - 1) % rc.size
    ctx = rc.next_collective_context()
    rreq = yield from rc.irecv(recv_va, nbytes, left, tag=0, context=ctx)
    sreq = yield from rc.isend(send_va, nbytes, right, tag=0, context=ctx)
    yield from rc.wait(sreq)
    yield from rc.wait(rreq)


def exchange(rc: RankComm, send_va: int, recv_va: int,
             nbytes: int) -> Generator:
    """IMB Exchange: exchange with both neighbours (left and right)."""
    right = (rc.rank + 1) % rc.size
    left = (rc.rank - 1) % rc.size
    ctx = rc.next_collective_context()
    r1 = yield from rc.irecv(recv_va, nbytes, left, tag=1, context=ctx)
    r2 = yield from rc.irecv(recv_va + nbytes, nbytes, right, tag=2, context=ctx)
    s1 = yield from rc.isend(send_va, nbytes, right, tag=1, context=ctx)
    s2 = yield from rc.isend(send_va, nbytes, left, tag=2, context=ctx)
    yield from rc.waitall([s1, s2, r1, r2])


def gather(rc: RankComm, send_va: int, recv_va: int, nbytes: int,
           root: int = 0) -> Generator:
    """Gather equal blocks to ``root`` (rank order)."""
    yield from gatherv(rc, send_va, nbytes, recv_va, [nbytes] * rc.size, root)


def gatherv(rc: RankComm, send_va: int, send_bytes: int, recv_va: int,
            counts: list[int], root: int = 0) -> Generator:
    """Gather variable blocks to ``root``; ``counts[r]`` is rank r's size."""
    size, rank = rc.size, rc.rank
    if len(counts) != size:
        raise ValueError("counts must have one entry per rank")
    if counts[rank] != send_bytes:
        raise ValueError("counts[rank] must equal send_bytes")
    ctx = rc.next_collective_context()
    if rank == root:
        offsets = [sum(counts[:r]) for r in range(size)]
        rc.write(recv_va + offsets[rank], rc.read(send_va, send_bytes))
        reqs = []
        for src in range(size):
            if src == root:
                continue
            req = yield from rc.irecv(recv_va + offsets[src], counts[src],
                                      src, tag=0, context=ctx)
            reqs.append(req)
        yield from rc.waitall(reqs)
    else:
        req = yield from rc.isend(send_va, send_bytes, root, tag=0,
                                  context=ctx)
        yield from rc.wait(req)


def scatter(rc: RankComm, send_va: int, recv_va: int, nbytes: int,
            root: int = 0) -> Generator:
    """Scatter equal blocks from ``root`` (rank order)."""
    yield from scatterv(rc, send_va, [nbytes] * rc.size, recv_va, nbytes, root)


def scatterv(rc: RankComm, send_va: int, counts: list[int], recv_va: int,
             recv_bytes: int, root: int = 0) -> Generator:
    """Scatter variable blocks from ``root``."""
    size, rank = rc.size, rc.rank
    if len(counts) != size:
        raise ValueError("counts must have one entry per rank")
    if counts[rank] != recv_bytes:
        raise ValueError("counts[rank] must equal recv_bytes")
    ctx = rc.next_collective_context()
    if rank == root:
        offsets = [sum(counts[:r]) for r in range(size)]
        rc.write(recv_va, rc.read(send_va + offsets[rank], counts[rank]))
        reqs = []
        for dest in range(size):
            if dest == root:
                continue
            req = yield from rc.isend(send_va + offsets[dest], counts[dest],
                                      dest, tag=0, context=ctx)
            reqs.append(req)
        yield from rc.waitall(reqs)
    else:
        req = yield from rc.irecv(recv_va, recv_bytes, root, tag=0,
                                  context=ctx)
        yield from rc.wait(req)


def barrier(rc: RankComm) -> Generator:
    """Dissemination barrier with 1-byte messages."""
    ctx = rc.next_collective_context()
    size, rank = rc.size, rc.rank
    if size == 1:
        return
    buf = rc.scratch_acquire(1)
    step = 1
    round_no = 0
    while step < size:
        dest = (rank + step) % size
        src = (rank - step) % size
        rreq = yield from rc.irecv(buf, 1, src, tag=round_no, context=ctx)
        sreq = yield from rc.isend(buf, 1, dest, tag=round_no, context=ctx)
        yield from rc.wait(sreq)
        yield from rc.wait(rreq)
        step <<= 1
        round_no += 1
    rc.scratch_release(buf, 1)
