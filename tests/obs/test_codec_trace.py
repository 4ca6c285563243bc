"""Wire-level trace context: the optional trailer and its invisibility."""

from __future__ import annotations

from dataclasses import replace
import pytest

from repro.core.codec import decode_message, encode_message, wire_size
from repro.core.errors import CodecError
from repro.core.messages import (
    Ack,
    BrokerAdvertisement,
    DiscoveryBusy,
    DiscoveryRequest,
    DiscoveryResponse,
    PingRequest,
    PingResponse,
    traced,
)
from repro.core.metrics import UsageMetrics

MB = 1024 * 1024


def _traceable_messages():
    metrics = UsageMetrics(400 * MB, 512 * MB, 1, 2, cpu_load=0.1)
    return [
        BrokerAdvertisement(
            broker_id="b0",
            hostname="b0.local",
            transports=(("tcp", 7000),),
            logical_address="/lab/b0",
            ttl=30.0,
        ),
        DiscoveryRequest(uuid="u" * 36, requester_host="c0.local", requester_port=7500),
        DiscoveryResponse(
            request_uuid="u" * 36,
            broker_id="b0",
            hostname="b0.local",
            transports=(("tcp", 7000),),
            issued_at=1.0,
            metrics=metrics,
        ),
        DiscoveryBusy(request_uuid="u" * 36, bdn="d0", retry_after=0.5),
        PingRequest(uuid="p" * 36, sent_at=1.0, reply_host="c0.local", reply_port=7501),
        PingResponse(uuid="p" * 36, sent_at=1.0, broker_id="b0"),
    ]


@pytest.mark.parametrize("message", _traceable_messages(), ids=lambda m: type(m).__name__)
class TestTrailerRoundTrip:
    def test_traced_roundtrip(self, message):
        marked = replace(traced(message), trace_hop=3)
        decoded = decode_message(encode_message(marked))
        assert decoded == marked
        assert decoded.trace_flag is True
        assert decoded.trace_hop == 3

    def test_untraced_is_byte_identical_prefix(self, message):
        # Disabled observability must be wire-invisible: the traced
        # encoding is the plain encoding plus exactly the 3-byte trailer.
        plain = encode_message(message)
        with_trailer = encode_message(replace(traced(message), trace_hop=1))
        assert with_trailer[: len(plain)] == plain
        assert len(with_trailer) == len(plain) + 3
        assert with_trailer[len(plain)] == 0x54  # the "T" marker

    def test_wire_size_tracks_trailer(self, message):
        assert wire_size(traced(message)) == wire_size(message) + 3

    def test_decoded_untraced_has_flag_off(self, message):
        decoded = decode_message(encode_message(message))
        assert decoded.trace_flag is False
        assert decoded.trace_hop == 0


class TestTrailerRobustness:
    def test_trailing_garbage_still_rejected(self):
        # The 3-byte tail is only a trailer when it starts with the
        # marker; anything else stays a framing error.
        request = DiscoveryRequest(uuid="u", requester_host="h", requester_port=1)
        buf = encode_message(request)
        with pytest.raises(CodecError):
            decode_message(buf + b"\x00\x00\x00")
        with pytest.raises(CodecError):
            decode_message(buf + b"\x00")

    def test_trailer_on_untraceable_kind_rejected(self):
        buf = encode_message(Ack(uuid="u", acked_by="x"))
        with pytest.raises(CodecError):
            decode_message(buf + b"\x54\x00\x01")

    def test_truncated_trailer_rejected(self):
        request = traced(DiscoveryRequest(uuid="u", requester_host="h", requester_port=1))
        buf = encode_message(request)
        with pytest.raises(CodecError):
            decode_message(buf[:-1])

    def test_traced_on_plain_message_raises(self):
        with pytest.raises(TypeError):
            traced(Ack(uuid="u", acked_by="x"))


class TestHopSemantics:
    def test_forwarded_bumps_trace_hop_only_when_traced(self):
        request = DiscoveryRequest(uuid="u", requester_host="h", requester_port=1)
        assert request.forwarded().trace_hop == 0
        assert request.forwarded().hop_count == 1
        marked = traced(request)
        assert marked.forwarded().trace_hop == 1
        assert marked.forwarded().hop_count == 1

    def test_traced_keeps_hop_when_not_given(self):
        request = DiscoveryRequest(
            uuid="u", requester_host="h", requester_port=1, trace_hop=4
        )
        assert traced(request).trace_hop == 4
