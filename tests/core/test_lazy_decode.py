"""Lazy-decode layer: LazyMessage views over wire buffers.

The contract under test: :func:`lazy_decode` validates only the 3-byte
header; the request UUID and a DiscoveryRequest's ``(uuid, attempt)``
dedup key are extractable without materialising the message; any field
access materialises exactly once and caches; materialisation yields the
same object the eager decoder would.
"""

from __future__ import annotations

from dataclasses import replace
import pytest

from repro.core.codec import (
    LazyMessage,
    decode_message,
    encode_message,
    lazy_decode,
)
from repro.core.errors import CodecError
from repro.core.messages import (
    Ack,
    DiscoveryRequest,
    LeaseClaim,
    PingRequest,
    traced,
)

_REQUEST = DiscoveryRequest(
    uuid="11111111-2222-3333-4444-555555555555",
    requester_host="client.example",
    requester_port=7500,
    transports=("udp", "tcp"),
    credentials=frozenset({"group-a", "group-b"}),
    realm="lab",
    issued_at=12.5,
    hop_count=2,
    attempt=3,
)


def materialized(lazy: LazyMessage) -> bool:
    """Whether the full decode has already happened."""
    return lazy._message is not None


class TestLaziness:
    def test_construction_does_not_materialize(self):
        lazy = lazy_decode(encode_message(_REQUEST))
        assert isinstance(lazy, LazyMessage)
        assert lazy.tag == DiscoveryRequest.kind
        assert not materialized(lazy)

    def test_request_uuid_does_not_materialize(self):
        lazy = lazy_decode(encode_message(_REQUEST))
        assert lazy.request_uuid == _REQUEST.uuid
        assert not materialized(lazy)

    def test_request_key_does_not_materialize(self):
        lazy = lazy_decode(encode_message(_REQUEST))
        assert lazy.request_key() == (_REQUEST.uuid, _REQUEST.attempt)
        assert not materialized(lazy)

    def test_request_key_works_on_traced_request(self):
        lazy = lazy_decode(encode_message(replace(traced(_REQUEST), trace_hop=5)))
        assert lazy.request_key() == (_REQUEST.uuid, _REQUEST.attempt)
        assert not materialized(lazy)

    def test_field_access_materializes_and_caches(self):
        lazy = lazy_decode(encode_message(_REQUEST))
        assert lazy.realm == _REQUEST.realm
        assert materialized(lazy)
        assert lazy.message is lazy.message  # cached, not re-decoded
        assert lazy.message == _REQUEST

    def test_materialization_matches_eager_decode(self):
        buf = encode_message(replace(traced(_REQUEST), trace_hop=1))
        assert lazy_decode(buf).message == decode_message(buf)

    def test_request_key_after_materialization(self):
        lazy = lazy_decode(encode_message(_REQUEST))
        _ = lazy.message
        assert lazy.request_key() == (_REQUEST.uuid, _REQUEST.attempt)

    def test_uuid_first_tags_peek_without_decode(self):
        ping = PingRequest(uuid="p-1", sent_at=1.0, reply_host="h", reply_port=2)
        lazy = lazy_decode(encode_message(ping))
        assert lazy.request_uuid == "p-1"
        assert not materialized(lazy)

    def test_non_uuid_first_tag_falls_back_to_materialization(self):
        claim = LeaseClaim(group="g", candidate="c", term=1, duration=2.0, sent_at=3.0)
        lazy = lazy_decode(encode_message(claim))
        assert lazy.request_uuid == ""  # LeaseClaim has no uuid field
        assert materialized(lazy)


class TestErrors:
    def test_request_key_on_wrong_tag_raises(self):
        lazy = lazy_decode(encode_message(Ack(uuid="u", acked_by="x")))
        with pytest.raises(CodecError, match="not a DiscoveryRequest"):
            lazy.request_key()

    def test_truncated_body_defers_error_to_access(self):
        buf = encode_message(_REQUEST)
        lazy = lazy_decode(buf[: len(buf) - 4])  # header valid, body cut
        assert lazy.tag == DiscoveryRequest.kind
        with pytest.raises(CodecError):
            _ = lazy.message

    def test_truncated_body_fails_request_key(self):
        buf = encode_message(_REQUEST)
        with pytest.raises(CodecError, match="truncated"):
            lazy_decode(buf[: len(buf) - 4]).request_key()

    def test_garbage_after_body_fails_request_key(self):
        buf = encode_message(_REQUEST)
        with pytest.raises(CodecError, match="trailing"):
            lazy_decode(buf + b"\x99\x99").request_key()

    def test_error_carries_tag_and_offset(self):
        buf = encode_message(_REQUEST)
        with pytest.raises(CodecError) as excinfo:
            _ = lazy_decode(buf[: len(buf) - 4]).message
        assert excinfo.value.tag == DiscoveryRequest.kind
        assert isinstance(excinfo.value.offset, int)


class TestInterning:
    def test_hot_identifiers_shared_across_decodes(self):
        """Two independently decoded messages share one string object
        per hot identifier (broker id, hostname, topic, realm), so
        downstream dict lookups hit pointer equality."""
        buf = encode_message(_REQUEST)
        a = decode_message(buf)
        b = decode_message(bytes(buf))  # distinct buffer object
        assert a.realm is b.realm
        assert a.requester_host is b.requester_host
        assert a.transports[0] is b.transports[0]

    def test_request_uuids_are_not_interned(self):
        """UUIDs are unique per request: interning them would pin every
        UUID ever decoded in the process-wide intern table."""
        buf = encode_message(_REQUEST)
        a = decode_message(buf)
        b = decode_message(bytes(buf))
        assert a.uuid == b.uuid
        assert a.uuid is not b.uuid
