"""Unit tests for MXoE wire packet accounting and config validation."""

import pytest

from repro.openmx.config import OpenMXConfig, PinningMode
from repro.openmx.wire import (
    EagerFrag,
    Liback,
    Notify,
    OmxPacket,
    PullReply,
    PullRequest,
    Rndv,
)


def test_data_packets_account_payload_plus_header():
    frag = EagerFrag(src_board="a", src_endpoint=0, dst_endpoint=1,
                     data=b"x" * 1000)
    assert frag.wire_payload_bytes == OmxPacket.HEADER_BYTES + 1000
    reply = PullReply(src_board="a", src_endpoint=0, dst_endpoint=1,
                      data=b"y" * 8192)
    assert reply.wire_payload_bytes == OmxPacket.HEADER_BYTES + 8192


def test_control_packets_are_header_only():
    for pkt in (
        Rndv(src_board="a", src_endpoint=0, dst_endpoint=1),
        PullRequest(src_board="a", src_endpoint=0, dst_endpoint=1),
        Notify(src_board="a", src_endpoint=0, dst_endpoint=1),
        Liback(src_board="a", src_endpoint=0, dst_endpoint=1),
    ):
        assert pkt.wire_payload_bytes == OmxPacket.HEADER_BYTES


def test_pull_request_resend_flag_not_in_equality():
    a = PullRequest(src_board="a", src_endpoint=0, dst_endpoint=1,
                    handle=1, offset=0, length=100, resend=False)
    b = PullRequest(src_board="a", src_endpoint=0, dst_endpoint=1,
                    handle=1, offset=0, length=100, resend=True)
    assert a == b  # a resend of the same request is the same request


def test_config_validation():
    # The edge of every range check is accepted.
    OpenMXConfig(poll_slice_ns=1, overlap_check_ns=0, resend_timeout_ns=1,
                 max_resend_rounds=0, region_cache_capacity=1,
                 pin_queue_wait_max_ns=0, pin_queue_max_share=1.0)


@pytest.mark.parametrize("field,value", [
    ("poll_slice_ns", 0),
    ("poll_slice_ns", -5),
    ("overlap_check_ns", -1),
    ("resend_timeout_ns", 0),
    ("max_resend_rounds", -1),
    ("region_cache_capacity", 0),
    ("pin_queue_wait_max_ns", -1),
    ("pin_queue_max_share", 0.0),
    ("pin_queue_max_share", 1.5),
])
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        OpenMXConfig(**{field: value})


def test_mode_properties():
    assert PinningMode.CACHE.cached
    assert PinningMode.PERMANENT.cached
    assert PinningMode.OVERLAP_CACHE.cached
    assert not PinningMode.PIN_PER_COMM.cached
    assert not PinningMode.OVERLAP.cached
    assert PinningMode.OVERLAP.overlapped
    assert PinningMode.OVERLAP_CACHE.overlapped
    assert not PinningMode.CACHE.overlapped
    assert not PinningMode.PERMANENT.overlapped
