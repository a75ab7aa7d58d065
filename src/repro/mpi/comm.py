"""MPI-like point-to-point layer over Open-MX endpoints.

This plays the role Open MPI played in the paper's evaluation: it maps
ranks onto Open-MX endpoints, encodes (source, tag) into MXoE 64-bit match
information, and provides blocking/non-blocking send/receive on top of
``OmxLib``.  Collective operations live in :mod:`repro.mpi.collectives`.

Match-info layout (64 bits)::

    [ context : 16 | source rank : 24 | tag : 24 ]

Point-to-point traffic uses context 0; collectives allocate per-operation
contexts so their internal traffic can never be matched by application
receives.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.openmx.lib import MATCH_FULL_MASK, OmxLib, OmxRequest

__all__ = ["ANY_SOURCE", "ANY_TAG", "Communicator", "MpiRequest", "RankComm"]

ANY_SOURCE = -1
ANY_TAG = -1

_TAG_BITS = 24
_SRC_BITS = 24
_TAG_MASK = (1 << _TAG_BITS) - 1
_SRC_MASK = (1 << _SRC_BITS) - 1


def _encode(context: int, src: int, tag: int) -> int:
    return (context << (_TAG_BITS + _SRC_BITS)) | (src << _TAG_BITS) | tag


@dataclass
class MpiRequest:
    """A non-blocking operation handle."""

    omx: OmxRequest
    lib: OmxLib

    @property
    def done(self) -> bool:
        return self.omx.done

    @property
    def status(self) -> str:
        return self.omx.status


class Communicator:
    """The world communicator: one rank per OmxLib."""

    def __init__(self, libs: list[OmxLib]):
        if not libs:
            raise ValueError("a communicator needs at least one rank")
        self.libs = list(libs)
        self.size = len(libs)
        self._addresses = [(lib.board, lib.endpoint_id) for lib in libs]

    def rank(self, r: int) -> "RankComm":
        return RankComm(self, r)

    def ranks(self) -> list["RankComm"]:
        return [self.rank(r) for r in range(self.size)]


class RankComm:
    """One rank's view of the communicator (the object rank code holds)."""

    def __init__(self, comm: Communicator, rank: int):
        if not 0 <= rank < comm.size:
            raise ValueError(f"rank {rank} outside communicator of {comm.size}")
        self.comm = comm
        self.rank = rank
        self.size = comm.size
        self.lib = comm.libs[rank]
        self.proc = self.lib.proc
        self.env = self.lib.env
        # Collective epoch: incremented identically by all ranks at every
        # collective call, giving each round a private matching context.
        self._coll_epoch = 0
        # Scratch buffer pool for collective internals: like a real MPI
        # implementation, internal buffers are pooled and reused, never
        # returned to the OS between operations.
        self._scratch: dict[int, list[int]] = {}

    # -- non-blocking p2p ---------------------------------------------------------
    def isend(self, va: int, nbytes: int, dest: int, tag: int = 0,
              context: int = 0) -> Generator:
        if not 0 <= dest < self.size:
            raise ValueError(f"bad destination rank {dest}")
        if not 0 <= tag <= _TAG_MASK:
            raise ValueError(f"tag {tag} out of range")
        board, endpoint = self.comm._addresses[dest]
        match = _encode(context, self.rank, tag)
        omx = yield from self.lib.isend(va, nbytes, board, endpoint, match)
        return MpiRequest(omx, self.lib)

    def irecv(self, va: int, nbytes: int, src: int = ANY_SOURCE,
              tag: int = ANY_TAG, context: int = 0) -> Generator:
        mask = MATCH_FULL_MASK
        src_field = src
        tag_field = tag
        if src == ANY_SOURCE:
            mask &= ~(_SRC_MASK << _TAG_BITS)
            src_field = 0
        if tag == ANY_TAG:
            mask &= ~_TAG_MASK
            tag_field = 0
        match = _encode(context, src_field, tag_field)
        omx = yield from self.lib.irecv(va, nbytes, match, mask)
        return MpiRequest(omx, self.lib)

    # -- blocking p2p ----------------------------------------------------------------
    def send(self, va: int, nbytes: int, dest: int, tag: int = 0) -> Generator:
        req = yield from self.isend(va, nbytes, dest, tag)
        yield from self.wait(req)

    def recv(self, va: int, nbytes: int, src: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator:
        req = yield from self.irecv(va, nbytes, src, tag)
        yield from self.wait(req)
        return req.omx.received_length

    def wait(self, req: MpiRequest) -> Generator:
        yield from self.lib.wait(req.omx)
        if req.status != "ok":
            raise RuntimeError(
                f"rank {self.rank}: request failed with status {req.status!r}"
            )

    def waitall(self, reqs: list[MpiRequest]) -> Generator:
        for req in reqs:
            yield from self.wait(req)

    def waitany(self, reqs: list[MpiRequest]) -> Generator:
        """Block until any request completes; returns its index.

        Progress is driven through the library (spinning like ``wait``),
        checking the whole set each round.
        """
        if not reqs:
            raise ValueError("waitany of an empty request list")
        while True:
            yield from self.lib.progress()
            for i, req in enumerate(reqs):
                if req.done:
                    if req.status != "ok":
                        raise RuntimeError(
                            f"rank {self.rank}: request failed with status "
                            f"{req.status!r}"
                        )
                    return i
            yield from self.lib.wait_step()

    def test(self, req: MpiRequest) -> Generator:
        """Non-blocking progress + completion check."""
        done = yield from self.lib.test(req.omx)
        return done

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Non-blocking check for a matching unexpected message.

        Returns True if a message that a matching ``irecv`` would consume
        has already arrived (eager data or a rendezvous descriptor).
        """
        yield from self.lib.progress()
        mask = MATCH_FULL_MASK
        src_field, tag_field = src, tag
        if src == ANY_SOURCE:
            mask &= ~(_SRC_MASK << _TAG_BITS)
            src_field = 0
        if tag == ANY_TAG:
            mask &= ~_TAG_MASK
            tag_field = 0
        want = _encode(0, src_field, tag_field)
        return self.lib.has_unexpected(want, mask)

    def sendrecv(self, send_va: int, send_bytes: int, dest: int,
                 recv_va: int, recv_bytes: int, src: int,
                 tag: int = 0) -> Generator:
        """Simultaneous send+receive (MPI_Sendrecv)."""
        rreq = yield from self.irecv(recv_va, recv_bytes, src, tag)
        sreq = yield from self.isend(send_va, send_bytes, dest, tag)
        yield from self.wait(sreq)
        yield from self.wait(rreq)
        return rreq.omx.received_length

    # -- collective support -----------------------------------------------------------
    def next_collective_context(self) -> int:
        """Reserve a matching context for one collective round."""
        self._coll_epoch = (self._coll_epoch + 1) & 0x7FFF
        return 0x8000 | self._coll_epoch

    def scratch_acquire(self, nbytes: int) -> int:
        pool = self._scratch.setdefault(nbytes, [])
        if pool:
            return pool.pop()
        return self.proc.malloc(nbytes)

    def scratch_release(self, va: int, nbytes: int) -> None:
        self._scratch[nbytes].append(va)

    # -- memory convenience ---------------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        return self.proc.malloc(nbytes)

    def free(self, va: int) -> None:
        self.proc.free(va)

    def write(self, va: int, data: bytes | bytearray | memoryview) -> None:
        self.proc.write(va, data)

    def read(self, va: int, nbytes: int) -> bytes:
        return self.proc.read(va, nbytes)
