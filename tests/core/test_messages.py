"""Tests for wire message dataclasses."""

from __future__ import annotations

import dataclasses
import typing

import pytest

from repro.core.messages import (
    BrokerAdvertisement,
    DiscoveryBusy,
    DiscoveryRequest,
    Event,
)
from tests.conftest import make_response


def make_ad(ttl: float = 0.0) -> BrokerAdvertisement:
    return BrokerAdvertisement(
        broker_id="b",
        hostname="h",
        transports=(("tcp", 5045), ("udp", 5046)),
        logical_address="/x/b",
        ttl=ttl,
    )


class TestEvent:
    def test_header_lookup(self):
        event = Event(
            uuid="u",
            topic="a/b",
            payload=b"x",
            source="s",
            issued_at=1.0,
            headers=(("k1", "v1"), ("k2", "v2")),
        )
        assert event.header("k1") == "v1"
        assert event.header("k2") == "v2"
        assert event.header("missing") is None
        assert event.header("missing", "dflt") == "dflt"


class TestAdvertisement:
    def test_port_for(self):
        ad = BrokerAdvertisement(
            broker_id="b",
            hostname="h",
            transports=(("tcp", 5045), ("udp", 5046)),
            logical_address="/x/b",
        )
        assert ad.port_for("tcp") == 5045
        assert ad.port_for("udp") == 5046
        assert ad.port_for("sctp") is None

    def test_zero_ttl_means_no_lease_and_is_valid(self):
        assert make_ad(ttl=0.0).ttl == 0.0

    def test_positive_ttl_valid(self):
        assert make_ad(ttl=6.0).ttl == 6.0

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError, match="ttl"):
            make_ad(ttl=-1.0)

    def test_non_finite_ttl_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="ttl"):
                make_ad(ttl=bad)


class TestDiscoveryBusy:
    def test_valid_busy(self):
        busy = DiscoveryBusy(request_uuid="u", bdn="d0", retry_after=0.5, queue_depth=9)
        assert busy.retry_after == 0.5
        assert busy.queue_depth == 9

    def test_negative_retry_after_rejected(self):
        with pytest.raises(ValueError, match="retry_after"):
            DiscoveryBusy(request_uuid="u", bdn="d0", retry_after=-0.1)

    def test_non_finite_retry_after_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="retry_after"):
                DiscoveryBusy(request_uuid="u", bdn="d0", retry_after=bad)

    def test_negative_queue_depth_rejected(self):
        with pytest.raises(ValueError, match="queue_depth"):
            DiscoveryBusy(request_uuid="u", bdn="d0", retry_after=1.0, queue_depth=-1)


class TestDiscoveryRequest:
    def test_forwarded_increments_hops_only(self):
        req = DiscoveryRequest(uuid="u", requester_host="h", requester_port=7500)
        fwd = req.forwarded()
        assert fwd.hop_count == 1
        assert fwd.attempt == 0
        assert fwd.uuid == req.uuid
        assert req.hop_count == 0  # original untouched

    def test_retransmission_increments_attempt_only(self):
        req = DiscoveryRequest(uuid="u", requester_host="h", requester_port=7500)
        rt = req.retransmission()
        assert rt.attempt == 1
        assert rt.hop_count == 0
        assert rt.uuid == req.uuid

    def test_chained_forwarding(self):
        req = DiscoveryRequest(uuid="u", requester_host="h", requester_port=7500)
        assert req.forwarded().forwarded().forwarded().hop_count == 3

    @pytest.mark.parametrize("traced", [False, True])
    def test_copies_equal_dataclasses_replace_on_every_field(self, traced):
        """The copies call the constructor by hand; a field added later
        and left out of that call would silently reset to its default."""
        values = {}
        hints = typing.get_type_hints(DiscoveryRequest)  # wire kinds stripped
        for i, f in enumerate(dataclasses.fields(DiscoveryRequest), start=3):
            kind = typing.get_origin(hints[f.name]) or hints[f.name]
            if f.name == "trace_flag":
                values[f.name] = traced
            elif kind is str:
                values[f.name] = f"{f.name}-{i}"
            elif kind is int:
                values[f.name] = i
            elif kind is float:
                values[f.name] = i + 0.5
            elif kind is tuple:
                values[f.name] = (f"t{i}",)
            elif kind is frozenset:
                values[f.name] = frozenset({f"c{i}"})
            else:
                pytest.fail(f"give DiscoveryRequest.{f.name} a non-default value here")
        req = DiscoveryRequest(**values)
        hop = {"trace_hop": req.trace_hop + 1} if traced else {}
        assert req.forwarded() == dataclasses.replace(req, hop_count=req.hop_count + 1, **hop)
        assert req.retransmission() == dataclasses.replace(req, attempt=req.attempt + 1)


class TestDiscoveryResponse:
    def test_port_for(self):
        resp = make_response()
        assert resp.port_for("tcp") == 5045
        assert resp.port_for("udp") == 5046
        assert resp.port_for("nope") is None

    def test_equality_by_value(self):
        assert make_response() == make_response()
