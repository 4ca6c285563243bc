"""Round-trip and robustness tests for the binary codec."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core import codec
from repro.core.codec import decode_message, encode_message, wire_size
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
    Message,
    PingRequest,
    PingResponse,
    ReplicaAck,
    ReplicaAppend,
    Subscribe,
    Unsubscribe,
    WIRE_MESSAGE_TYPES,
    Str,
    U8,
    traced,
)
from repro.core.metrics import UsageMetrics

# ---------------------------------------------------------------------------
# Hypothesis strategies for each message type
# ---------------------------------------------------------------------------

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)
_port = st.integers(min_value=0, max_value=65535)
_f = st.floats(allow_nan=False, allow_infinity=False, width=64)
_transports = st.lists(st.tuples(_text, _port), max_size=3).map(tuple)
_strset = st.frozensets(_text, max_size=3)

_metrics = st.builds(
    lambda total, free_frac, links, conns, cpu, depth: UsageMetrics(
        free_memory=int(total * free_frac),
        total_memory=total,
        num_links=links,
        num_connections=conns,
        cpu_load=cpu,
        queue_depth=depth,
    ),
    total=st.integers(min_value=1, max_value=2**40),
    free_frac=st.floats(min_value=0.0, max_value=1.0),
    links=st.integers(min_value=0, max_value=2**20),
    conns=st.integers(min_value=0, max_value=2**20),
    cpu=st.floats(min_value=0.0, max_value=1.0),
    depth=st.integers(min_value=0, max_value=2**20),
)

_event = st.builds(
    Event,
    uuid=_text,
    topic=_text,
    payload=st.binary(max_size=200),
    source=_text,
    issued_at=_f,
    headers=st.lists(st.tuples(_text, _text), max_size=3).map(tuple),
)
_ack = st.builds(Ack, uuid=_text, acked_by=_text)
_ad = st.builds(
    BrokerAdvertisement,
    broker_id=_text,
    hostname=_text,
    transports=_transports,
    logical_address=_text,
    region=_text,
    institution=_text,
    issued_at=_f,
    ttl=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)
_request = st.builds(
    DiscoveryRequest,
    uuid=_text,
    requester_host=_text,
    requester_port=_port,
    transports=st.lists(_text, max_size=3).map(tuple),
    credentials=_strset,
    realm=_text,
    issued_at=_f,
    hop_count=st.integers(min_value=0, max_value=65535),
    attempt=st.integers(min_value=0, max_value=255),
)
_response = st.builds(
    DiscoveryResponse,
    request_uuid=_text,
    broker_id=_text,
    hostname=_text,
    transports=_transports,
    issued_at=_f,
    metrics=_metrics,
)
_busy = st.builds(
    DiscoveryBusy,
    request_uuid=_text,
    bdn=_text,
    retry_after=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    queue_depth=st.integers(min_value=0, max_value=2**20),
)
_ping_req = st.builds(
    PingRequest, uuid=_text, sent_at=_f, reply_host=_text, reply_port=_port
)
_ping_resp = st.builds(PingResponse, uuid=_text, sent_at=_f, broker_id=_text)
_subscribe = st.builds(Subscribe, uuid=_text, topic=_text, subscriber=_text)
_unsubscribe = st.builds(Unsubscribe, uuid=_text, topic=_text, subscriber=_text)

_term = st.integers(min_value=0, max_value=0xFFFFFFFF)
_seq = st.integers(min_value=0, max_value=2**64 - 1)
_lease_claim = st.builds(
    LeaseClaim,
    group=_text,
    candidate=_text,
    term=_term,
    duration=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    sent_at=_f,
)
_lease_vote = st.builds(
    LeaseVote,
    group=_text,
    voter=_text,
    term=_term,
    granted=st.booleans(),
    claim_sent_at=_f,
    leader_hint=_text,
)
_replica_append = st.builds(
    ReplicaAppend, group=_text, leader=_text, term=_term, seq=_seq, ad=_ad
)
_replica_ack = st.builds(ReplicaAck, group=_text, member=_text, term=_term, seq=_seq)
_digest = st.builds(
    AntiEntropyDigest,
    group=_text,
    member=_text,
    entries=st.lists(
        st.tuples(_text, _f),
        max_size=4,
    ).map(tuple),
)
_delta = st.builds(
    AntiEntropyDelta,
    group=_text,
    member=_text,
    ads=st.lists(_ad, max_size=3).map(tuple),
)
_ad_ack = st.builds(AdvertisementAck, broker_id=_text, bdn=_text, leader_hint=_text)
_hinted_busy = st.builds(
    DiscoveryBusy,
    request_uuid=_text,
    bdn=_text,
    retry_after=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    queue_depth=st.integers(min_value=0, max_value=2**20),
    leader_hint=_text,
)
_hinted_response = st.builds(
    DiscoveryResponse,
    request_uuid=_text,
    broker_id=_text,
    hostname=_text,
    transports=_transports,
    issued_at=_f,
    metrics=_metrics,
    leader_hint=_text,
)

_any_message = st.one_of(
    _event,
    _ack,
    _ad,
    _request,
    _response,
    _busy,
    _ping_req,
    _ping_resp,
    _subscribe,
    _unsubscribe,
    _lease_claim,
    _lease_vote,
    _replica_append,
    _replica_ack,
    _digest,
    _delta,
    _ad_ack,
    _hinted_busy,
    _hinted_response,
)


@given(message=_any_message)
def test_property_roundtrip_every_message_type(message):
    """decode(encode(m)) == m for arbitrary field values."""
    assert decode_message(encode_message(message)) == message


@given(message=_any_message)
def test_property_wire_size_matches_encoding(message):
    assert wire_size(message) == len(encode_message(message))


def test_wire_size_does_not_pin_message_instances():
    """Regression: wire_size was once an lru_cache keyed on message
    *instances*, pinning every message it ever sized for the life of
    the process.  Sized messages must be garbage-collected normally."""
    import gc

    class _Canary(Ack):
        pass

    def live_canaries() -> int:
        gc.collect()
        return sum(1 for o in gc.get_objects() if type(o) is _Canary)

    before = live_canaries()
    for i in range(200):
        wire_size(_Canary(uuid=f"gc-probe-{i}", acked_by="x" * (i % 40)))
    assert live_canaries() <= before


class TestErrors:
    def test_bad_magic_rejected(self):
        buf = encode_message(Ack(uuid="u", acked_by="x"))
        with pytest.raises(CodecError, match="magic"):
            decode_message(b"\x00\x00" + buf[2:])

    def test_unknown_tag_rejected(self):
        buf = bytearray(encode_message(Ack(uuid="u", acked_by="x")))
        buf[2] = 0xEE
        with pytest.raises(CodecError, match="unknown message type"):
            decode_message(bytes(buf))

    def test_truncation_rejected(self):
        buf = encode_message(
            DiscoveryRequest(uuid="u" * 30, requester_host="h", requester_port=1)
        )
        for cut in (3, 5, len(buf) // 2, len(buf) - 1):
            with pytest.raises(CodecError):
                decode_message(buf[:cut])

    def test_trailing_garbage_rejected(self):
        buf = encode_message(Ack(uuid="u", acked_by="x"))
        with pytest.raises(CodecError, match="trailing"):
            decode_message(buf + b"\x00")

    def test_base_message_not_encodable(self):
        with pytest.raises(CodecError):
            encode_message(Message())

    def test_empty_buffer_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"")

    @pytest.mark.parametrize(
        "message",
        [
            PingRequest(uuid="p", sent_at=0.0, reply_host="h", reply_port=70_000),
            DiscoveryRequest(uuid="u", requester_host="h", requester_port=1, hop_count=70_000),
            DiscoveryRequest(uuid="u", requester_host="h", requester_port=1, attempt=256),
            Event(
                uuid="e", topic="t", payload=b"", source="s", issued_at=0.0,
                headers=tuple((f"k{i}", "v") for i in range(300)),
            ),
            BrokerAdvertisement(
                broker_id="b", hostname="h", logical_address="/b",
                transports=tuple((f"t{i}", i) for i in range(256)),
            ),
            Ack(uuid="u" * 70_000, acked_by="x"),
            Ack(uuid="u", acked_by="x" * 70_000),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_unencodable_field_is_a_codec_error_with_the_tag(self, message):
        """Regression: an out-of-range scalar used to escape as a raw
        ``struct.error`` -- through ``send_udp`` into the engine, on the
        live runtime -- and a too-long string as a CodecError with no tag."""
        with pytest.raises(CodecError) as excinfo:
            encode_message(message)
        assert excinfo.value.tag == type(message).kind
        assert excinfo.value.offset is None


class TestSizes:
    def test_discovery_response_is_compact(self):
        """Responses must fit comfortably in one UDP datagram."""
        from tests.conftest import make_response

        assert wire_size(make_response()) < 576  # conservative MTU floor

    def test_ping_is_tiny(self):
        ping = PingRequest(uuid="u" * 36, sent_at=1.0, reply_host="host.example", reply_port=7500)
        assert wire_size(ping) < 128

    def test_size_grows_with_payload(self):
        small = Event(uuid="u", topic="t", payload=b"", source="s", issued_at=0.0)
        big = Event(uuid="u", topic="t", payload=b"x" * 1000, source="s", issued_at=0.0)
        assert wire_size(big) == wire_size(small) + 1000


class TestLeaderHintTrailer:
    """The leader hint must be byte-absent when empty (golden digests)."""

    def _busy(self, hint: str) -> DiscoveryBusy:
        return DiscoveryBusy(request_uuid="u", bdn="d0", retry_after=1.0, leader_hint=hint)

    def test_empty_hint_adds_no_bytes(self):
        import dataclasses

        plain = self._busy("")
        assert encode_message(plain) == encode_message(
            dataclasses.replace(plain, leader_hint="")
        )
        hinted = self._busy("bdn-host:7000")
        # marker + u16 length + utf-8 payload
        assert wire_size(hinted) == wire_size(plain) + 3 + len("bdn-host:7000")

    def test_hint_roundtrips(self):
        hinted = self._busy("bdn-host:7000")
        assert decode_message(encode_message(hinted)) == hinted

    def test_hint_and_trace_roundtrip_together(self):
        hinted = dataclasses.replace(traced(self._busy("bdn-host:7000")), trace_hop=4)
        decoded = decode_message(encode_message(hinted))
        assert decoded == hinted
        assert decoded.leader_hint == "bdn-host:7000"
        assert decoded.trace_hop == 4

    def test_empty_hint_trailer_rejected(self):
        # marker + zero-length string: "no hint" is encoded by absence,
        # so an explicit empty trailer is garbage.
        buf = encode_message(self._busy(""))
        with pytest.raises(CodecError):
            decode_message(buf + b"\x4c\x00\x00")

    def test_hint_trailer_on_unhintable_kind_rejected(self):
        buf = encode_message(Ack(uuid="u", acked_by="x"))
        with pytest.raises(CodecError):
            decode_message(buf + b"\x4c\x00\x01a")


class TestDeclaredOnce:
    """Every wire layout is read off its message class's declaration."""

    def test_every_field_is_a_body_field_or_a_trailer(self):
        for cls in WIRE_MESSAGE_TYPES:
            body = [name for name, *_ in codec._row(cls)]
            declared = [f.name for f in dataclasses.fields(cls)]
            assert declared[: len(body)] == body, cls
            assert set(declared[len(body):]) <= {"trace_flag", "trace_hop", "leader_hint"}, cls

    def test_field_without_a_wire_kind_is_a_type_error(self):
        @dataclasses.dataclass(slots=True)
        class Unsent(Message):
            uuid: Str
            note: str = ""

        with pytest.raises(TypeError, match=r"Unsent\.note"):
            codec._row(Unsent)

    def test_body_field_after_a_trailer_is_a_type_error(self):
        @dataclasses.dataclass(slots=True)
        class Late(Message):
            uuid: Str
            trace_flag: bool = False
            attempt: U8 = 0

        with pytest.raises(TypeError, match=r"Late\.attempt"):
            codec._row(Late)

    def test_derived_tag_sets_equal_the_lists_they_replace(self):
        assert codec._TRACEABLE_KINDS == {3, 4, 5, 6, 7, 10}
        assert codec._HINTABLE_KINDS == {5, 10}
        assert codec._UUID_FIRST_TAGS == {1, 2, 4, 5, 6, 7, 8, 9, 10}
