"""Fuzz tests: the codec must never fail with anything but CodecError.

A broker parses datagrams from the network; malformed input must
surface as a typed protocol error, never as an uncontrolled exception
(IndexError, UnicodeDecodeError, struct.error, MemoryError...).
"""

from __future__ import annotations

import json
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.codec import decode_message, encode_message, lazy_decode, wire_size
from repro.core.errors import CodecError
from repro.core.messages import (
    Ack,
    AdvertisementAck,
    AntiEntropyDelta,
    AntiEntropyDigest,
    BrokerAdvertisement,
    DiscoveryBusy,
    DiscoveryRequest,
    DiscoveryResponse,
    Event,
    LeaseClaim,
    LeaseVote,
    PingRequest,
    PingResponse,
    ReplicaAck,
    ReplicaAppend,
    Subscribe,
    Unsubscribe,
    WIRE_MESSAGE_TYPES,
    traced,
)
from repro.core.metrics import UsageMetrics

_AD = BrokerAdvertisement(
    broker_id="b0",
    hostname="b0.host",
    transports=(("tcp", 5045), ("udp", 5046)),
    logical_address="/lab/b0",
    region="eu",
    institution="uni",
    issued_at=1.0,
    ttl=6.0,
)

#: One representative (non-degenerate) instance per wire tag, including
#: trailer variants: a traced request (0x54 trailer) and a leader-hinted
#: response (0x4C trailer) plus a response carrying both.
_SAMPLES: list = [
    Event(
        uuid="ev-1",
        topic="discovery/requests",
        payload=b"\x01\x02payload",
        source="b1",
        issued_at=2.0,
        headers=(("k", "v"), ("x", "y")),
    ),
    Ack(uuid="u" * 36, acked_by="bdn-1"),
    _AD,
    DiscoveryRequest(
        uuid="req-uuid-1234",
        requester_host="client.example",
        requester_port=7500,
        transports=("udp", "tcp"),
        credentials=frozenset({"a", "bb"}),
        realm="lab",
        issued_at=1.5,
        hop_count=3,
        attempt=1,
    ),
    DiscoveryResponse(
        request_uuid="req-uuid-1234",
        broker_id="b0",
        hostname="b0.host",
        transports=(("tcp", 5045),),
        issued_at=2.5,
        metrics=UsageMetrics(
            free_memory=1 << 20,
            total_memory=1 << 22,
            num_links=3,
            num_connections=9,
            cpu_load=0.25,
            queue_depth=2,
        ),
    ),
    PingRequest(uuid="ping-1", sent_at=3.0, reply_host="client.example", reply_port=7501),
    PingResponse(uuid="ping-1", sent_at=3.0, broker_id="b0"),
    Subscribe(uuid="s-1", topic="a/b/**", subscriber="c0"),
    Unsubscribe(uuid="s-1", topic="a/b/**", subscriber="c0"),
    DiscoveryBusy(request_uuid="req-uuid-1234", bdn="bdn-1", retry_after=0.5, queue_depth=7),
    LeaseClaim(group="g", candidate="bdn-1", term=4, duration=2.0, sent_at=5.0),
    LeaseVote(
        group="g", voter="bdn-2", term=4, granted=True, claim_sent_at=5.0, leader_hint="bdn-1"
    ),
    ReplicaAppend(group="g", leader="bdn-1", term=4, seq=17, ad=_AD),
    ReplicaAck(group="g", member="bdn-2", term=4, seq=17),
    AntiEntropyDigest(group="g", member="bdn-2", entries=(("b0", 3.5), ("b1", 1.0))),
    AntiEntropyDelta(group="g", member="bdn-1", ads=(_AD,)),
    AdvertisementAck(broker_id="b0", bdn="bdn-1", leader_hint="bdn-2"),
]
assert {type(m) for m in _SAMPLES} == set(WIRE_MESSAGE_TYPES)
_SAMPLES += [
    replace(traced(_SAMPLES[3]), trace_hop=2),  # request + trace trailer
    DiscoveryResponse(
        request_uuid="req-uuid-1234",
        broker_id="b0",
        hostname="b0.host",
        transports=(),
        issued_at=2.5,
        metrics=UsageMetrics(
            free_memory=1, total_memory=2, num_links=0, num_connections=0
        ),
        leader_hint="bdn-1",
    ),  # hint trailer
    replace(
        traced(
            DiscoveryBusy(
                request_uuid="r",
                bdn="bdn-1",
                retry_after=0.5,
                queue_depth=7,
                leader_hint="bdn-2",
            )
        ),
        trace_hop=1,
    ),  # hint + trace trailers together
]
_WIRES = [encode_message(m) for m in _SAMPLES]


@given(buf=st.binary(max_size=600))
def test_property_random_bytes_decode_cleanly_or_codec_error(buf):
    try:
        decode_message(buf)
    except CodecError:
        pass  # the only acceptable failure


@given(data=st.data())
def test_property_bitflipped_valid_messages_never_crash(data):
    """Corrupting any single byte of a valid encoding either still
    decodes (the flip hit a don't-care bit) or raises CodecError."""
    message = DiscoveryRequest(
        uuid="fuzz-uuid",
        requester_host="client.example",
        requester_port=7500,
        credentials=frozenset({"a", "bb"}),
        realm="lab",
        issued_at=1.5,
        hop_count=3,
        attempt=1,
    )
    buf = bytearray(encode_message(message))
    position = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    buf[position] ^= flip
    try:
        decode_message(bytes(buf))
    except CodecError:
        pass


@given(data=st.data())
def test_property_truncations_never_crash(data):
    message = Ack(uuid="u" * 36, acked_by="some-bdn-name")
    buf = encode_message(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
    try:
        decoded = decode_message(buf[:cut])
        assert cut == len(buf) and decoded == message
    except CodecError:
        assert cut < len(buf)


@given(extra=st.binary(min_size=1, max_size=50))
def test_property_appended_garbage_always_rejected(extra):
    buf = encode_message(Ack(uuid="u", acked_by="x"))
    with pytest.raises(CodecError):
        decode_message(buf + extra)


@given(
    bad_ttl=st.one_of(
        st.floats(max_value=-1e-9, allow_nan=False),
        st.just(float("nan")),
        st.just(float("inf")),
        st.just(float("-inf")),
    )
)
def test_property_hostile_ttl_rejected_at_decode(bad_ttl):
    """An advertisement whose wire ttl is negative or non-finite must be
    a CodecError, not an immortal (ttl=-1 -> no expiry) or instantly
    dead store entry."""
    ad = BrokerAdvertisement(
        broker_id="b0",
        hostname="b0.host",
        transports=(("tcp", 5045),),
        logical_address="/lab/b0",
        region="",
        institution="",
        issued_at=1.0,
        ttl=6.0,
    )
    buf = bytearray(encode_message(ad))
    # ttl is the advertisement's final field: the trailing f64.
    buf[-8:] = struct.pack(">d", bad_ttl)
    with pytest.raises(CodecError, match="invalid field values"):
        decode_message(bytes(buf))


def test_negative_digest_stamp_roundtrips():
    """A broker stamps renewals off its clock, which can read negative
    before NTP sync: the digest carries such a stamp unchanged."""
    digest = AntiEntropyDigest(group="g", member="d0", entries=(("b0", -4.25), ("b1", 0.0)))
    assert decode_message(encode_message(digest)) == digest


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_digest_stamp_refused(bad):
    with pytest.raises(ValueError, match="stamp"):
        AntiEntropyDigest(group="g", member="d0", entries=(("b0", bad),))
    buf = bytearray(encode_message(AntiEntropyDigest(group="g", member="d0", entries=(("b0", 1.0),))))
    # The one entry's stamp is the message's final field: the trailing f64.
    buf[-8:] = struct.pack(">d", bad)
    with pytest.raises(CodecError, match="invalid field values"):
        decode_message(bytes(buf))


def test_invalid_utf8_is_codec_error_at_the_string():
    buf = bytearray(encode_message(Ack(uuid="uuid", acked_by="bdn")))
    buf[3 + 2 + 4 + 2] = 0xFF  # first byte of acked_by
    with pytest.raises(CodecError, match="invalid UTF-8") as excinfo:
        decode_message(bytes(buf))
    assert excinfo.value.tag == Ack.kind
    assert excinfo.value.offset == 3 + 2 + 4 + 2


@pytest.mark.parametrize(
    "message, tail",
    [
        # cpu_load 7.5 in a response's metrics block (f64 before the final u32)
        (DiscoveryResponse(
            request_uuid="r", broker_id="b0", hostname="h", transports=(), issued_at=1.0,
            metrics=UsageMetrics(free_memory=1, total_memory=2, num_links=0, num_connections=0),
        ), struct.pack(">dI", 7.5, 0)),
        # retry_after -1 on a busy signal
        (DiscoveryBusy(request_uuid="r", bdn="d", retry_after=1.0), struct.pack(">dI", -1.0, 0)),
    ],
    ids=["UsageMetrics", "retry_after"],
)
def test_out_of_range_field_rejected_at_decode(message, tail):
    buf = encode_message(message)
    buf = buf[: -len(tail)] + tail
    with pytest.raises(CodecError, match="invalid field values") as excinfo:
        decode_message(buf)
    assert excinfo.value.tag == type(message).kind
    assert excinfo.value.offset == len(buf)


# ---------------------------------------------------------------------------
# Every wire tag (1-17), including the 0x54 / 0x4C trailer variants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("message", _SAMPLES, ids=lambda m: type(m).__name__)
def test_every_tag_roundtrips_eagerly_and_lazily(message):
    buf = encode_message(message)
    assert decode_message(buf) == message
    assert lazy_decode(buf).message == message


@given(data=st.data())
def test_property_every_tag_truncation_is_codec_error(data):
    i = data.draw(st.integers(min_value=0, max_value=len(_SAMPLES) - 1))
    buf = _WIRES[i]
    cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
    try:
        decoded = decode_message(buf[:cut])
    except CodecError:
        assert cut < len(buf)
    else:
        # A cut that lands exactly on an optional-trailer boundary is a
        # valid shorter message; anything that decodes must re-encode to
        # exactly the bytes that were decoded.
        assert encode_message(decoded) == buf[:cut]
        if cut == len(buf):
            assert decoded == _SAMPLES[i]


@given(data=st.data())
def test_property_every_tag_bitflip_never_crashes(data):
    """Any single-byte corruption of any tag's encoding either still
    decodes or raises CodecError -- both eagerly and lazily."""
    i = data.draw(st.integers(min_value=0, max_value=len(_SAMPLES) - 1))
    buf = bytearray(_WIRES[i])
    position = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    buf[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    corrupted = bytes(buf)
    try:
        decode_message(corrupted)
    except CodecError:
        pass
    try:
        lazy = lazy_decode(corrupted)
        if lazy.tag == DiscoveryRequest.kind:
            _ = lazy.request_uuid
        _ = lazy.message
    except CodecError:
        pass


@given(data=st.data())
def test_property_hostile_length_prefixes_rejected(data):
    """Inflating any 2-byte window of the wire (the attack shape for a
    length prefix claiming more bytes than the buffer holds) must never
    escape as struct.error / IndexError / MemoryError."""
    i = data.draw(st.integers(min_value=0, max_value=len(_SAMPLES) - 1))
    buf = bytearray(_WIRES[i])
    if len(buf) < 5:
        return
    position = data.draw(st.integers(min_value=3, max_value=len(buf) - 2))
    buf[position] = 0xFF
    buf[position + 1] = 0xFF
    try:
        decode_message(bytes(buf))
    except CodecError:
        pass


_SAMPLE_IDS = [f"{i}-{type(m).__name__}" for i, m in enumerate(_SAMPLES)]


def test_codec_error_carries_tag_and_offset():
    """Every sample cut at every length: always CodecError, eagerly and
    lazily, with the tag once the header is read and an offset inside
    the buffer that was handed in."""
    for message, wire in zip(_SAMPLES, _WIRES):
        for cut in range(len(wire)):
            buf = wire[:cut]
            where = f"{type(message).__name__} cut at {cut}"
            for decode in (decode_message, lambda b: lazy_decode(b).message):
                try:
                    decoded = decode(buf)
                except CodecError as exc:
                    if cut < 3:
                        assert exc.tag is None and exc.offset == 0, where
                    else:
                        assert exc.tag == type(message).kind, where
                        assert isinstance(exc.offset, int) and 0 < exc.offset <= cut, where
                else:
                    # Only a cut on an optional-trailer boundary is a
                    # valid (shorter) message.
                    assert encode_message(decoded) == buf, where


#: ``encode_message(sample).hex()`` for every entry of ``_SAMPLES``,
#: written by the codec as it stood before its decoders were rewritten.
#: The golden trace digests only pin the tags the scenarios happen to
#: send; this pins all 17 and the hint-then-trace trailer order.
_CORPUS = json.loads(Path(__file__).with_name("wire_corpus.json").read_text())


def test_wire_corpus_covers_every_sample():
    assert [row["type"] for row in _CORPUS] == [type(m).__name__ for m in _SAMPLES]


@pytest.mark.parametrize("index", range(len(_SAMPLES)), ids=_SAMPLE_IDS)
def test_wire_corpus_matches_byte_for_byte(index):
    message, wire = _SAMPLES[index], bytes.fromhex(_CORPUS[index]["hex"])
    assert encode_message(message) == wire
    assert wire_size(message) == len(wire)
    assert decode_message(wire) == message
    assert lazy_decode(wire).message == message


@pytest.mark.parametrize("index", range(len(_SAMPLES)), ids=_SAMPLE_IDS)
def test_bytes_bytearray_and_memoryview_decode_alike(index):
    wire = _WIRES[index]
    for buf in (wire, bytearray(wire), memoryview(wire), memoryview(bytearray(wire))[:]):
        assert decode_message(buf) == _SAMPLES[index]
        assert lazy_decode(buf).message == _SAMPLES[index]


def test_lazy_message_never_pins_a_mutable_buffer():
    """A receive loop reuses its bytearray: the view must neither hold
    an export on it (resizing would raise BufferError) nor see it change."""
    scratch = bytearray(_WIRES[3])
    lazy = lazy_decode(scratch)
    scratch[:] = bytes(len(scratch))
    scratch.clear()
    assert lazy.request_key() == (_SAMPLES[3].uuid, _SAMPLES[3].attempt)
    assert lazy.message == _SAMPLES[3]


def test_codec_error_tag_none_before_header_read():
    with pytest.raises(CodecError) as excinfo:
        decode_message(b"\x4e")
    assert excinfo.value.tag is None
    assert excinfo.value.offset == 0


@pytest.mark.parametrize("message", _SAMPLES, ids=lambda m: type(m).__name__)
def test_every_tag_trailer_garbage_rejected(message):
    """A stray trailer marker byte after any body is trailing garbage."""
    buf = encode_message(message)
    for marker in (b"\x54", b"\x4c", b"\x00"):
        with pytest.raises(CodecError):
            decode_message(buf + marker)


def test_lazy_decode_validates_header_eagerly():
    with pytest.raises(CodecError, match="magic"):
        lazy_decode(b"\x00\x00\x01rest")
    with pytest.raises(CodecError, match="unknown message type"):
        lazy_decode(b"\x4e\x42\x63")
    with pytest.raises(CodecError, match="truncated"):
        lazy_decode(b"\x4e\x42")


@given(data=st.data())
def test_property_lazy_request_key_matches_eager_decode(data):
    """For any (possibly corrupted) request buffer, the lazy key walk and
    the eager decode must agree: both succeed with the same (uuid,
    attempt), or the buffer is undecodable and the lazy path may reject
    it too -- the key walk must never yield a key for a buffer whose
    structure the eager decoder rejects."""
    buf = bytearray(_WIRES[3])  # DiscoveryRequest sample
    if data.draw(st.booleans()):
        position = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        buf[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    corrupted = bytes(buf)
    try:
        eager = decode_message(corrupted)
    except CodecError:
        eager = None
    try:
        key = lazy_decode(corrupted).request_key()
    except CodecError:
        key = None
    if eager is not None and isinstance(eager, DiscoveryRequest) and key is not None:
        assert key == (eager.uuid, eager.attempt)
