"""MXoE wire packets.

These mirror the Myrinet Express over Ethernet packet classes Open-MX
implements: eager fragments for small/medium messages, and the
rendezvous/pull/notify exchange for large ones (Figure 2 of the paper).
Packets carry real payload bytes so the stack is tested end-to-end for data
integrity, and a ``header_bytes`` accounting so wire occupancy is right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util import frozen_record

__all__ = [
    "EagerFrag",
    "Liback",
    "Notify",
    "OmxPacket",
    "PullRequest",
    "PullReply",
    "Rndv",
]


@frozen_record
@dataclass(frozen=True)
class OmxPacket:
    """Base: addressing shared by every MXoE packet."""

    src_board: str
    src_endpoint: int
    dst_endpoint: int

    HEADER_BYTES = 32  # MXoE header incl. addressing/type/seq

    @property
    def wire_payload_bytes(self) -> int:
        return self.HEADER_BYTES


@frozen_record
@dataclass(frozen=True)
class EagerFrag(OmxPacket):
    """One fragment of an eager (or medium) message."""

    seq: int = 0
    match_info: int = 0
    msg_length: int = 0
    frag_index: int = 0
    nfrags: int = 1
    offset: int = 0
    data: bytes = b""

    @property
    def wire_payload_bytes(self) -> int:
        return self.HEADER_BYTES + len(self.data)


@frozen_record
@dataclass(frozen=True)
class Liback(OmxPacket):
    """Acknowledge full receipt of an eager message (reliability)."""

    seq: int = 0


@frozen_record
@dataclass(frozen=True)
class Rndv(OmxPacket):
    """Rendezvous: announces a large message and its source region."""

    seq: int = 0
    match_info: int = 0
    msg_length: int = 0
    sender_region: int = -1


@frozen_record
@dataclass(frozen=True)
class PullRequest(OmxPacket):
    """Receiver asks the sender for [offset, offset+length) of a region."""

    handle: int = -1  # receiver-side pull handle
    sender_region: int = -1
    offset: int = 0
    length: int = 0
    resend: bool = field(default=False, compare=False)


@frozen_record
@dataclass(frozen=True)
class PullReply(OmxPacket):
    """One data frame of a pull response."""

    handle: int = -1
    offset: int = 0
    data: bytes = b""

    @property
    def wire_payload_bytes(self) -> int:
        return self.HEADER_BYTES + len(self.data)


@frozen_record
@dataclass(frozen=True)
class Notify(OmxPacket):
    """Receiver tells the sender the whole message arrived (Figure 2)."""

    handle: int = -1
    sender_region: int = -1
    seq: int = 0
