"""Tests for the broker-side discovery responder (paper sections 4-5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.codec import decode_message
from repro.core.config import BrokerConfig, ClientConfig, Endpoint, ResponsePolicyConfig
from repro.core.messages import DiscoveryRequest, DiscoveryResponse
from repro.discovery.responder import REQUEST_TOPIC, DiscoveryResponder
from repro.substrate.builder import BrokerNetwork, Topology
from tests.discovery.conftest import World


def make_request(world: World, uuid="req-1", attempt=0, credentials=frozenset(), realm=""):
    return DiscoveryRequest(
        uuid=uuid,
        requester_host=world.client.host,
        requester_port=7500,
        credentials=credentials,
        realm=realm,
        issued_at=world.client.utc(),
        attempt=attempt,
    )


def inbox_of(world: World) -> list:
    """Replace the client's UDP handler with a raw inbox."""
    box = []
    world.net.network.unbind_udp(world.client.udp_endpoint)
    world.net.network.bind_udp(world.client.udp_endpoint, lambda m, s: box.append(m))
    return box


class TestUdpPath:
    def test_request_produces_response_with_metrics(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(1.0)
        responses = [m for m in box if isinstance(m, DiscoveryResponse)]
        assert len(responses) == 1
        resp = responses[0]
        assert resp.request_uuid == "req-1"
        assert resp.broker_id == "b0"
        assert resp.port_for("tcp") == 5045
        assert resp.metrics.total_memory > 0

    def test_response_timestamp_is_ntp_corrected(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(1.0)
        resp = [m for m in box if isinstance(m, DiscoveryResponse)][0]
        # Issued "recently" in UTC terms: within NTP error of sim time.
        assert abs(resp.issued_at - world.sim.now) < 1.0

    def test_duplicate_request_ignored(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        responder = world.responders["b0"]
        for _ in range(3):
            world.net.network.send_udp(
                world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
            )
        world.sim.run_for(1.0)
        assert responder.requests_processed == 1
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 1

    def test_retransmission_reprocessed(self):
        """A new attempt number must be re-answered (section 7: the
        scheme sustains loss of discovery responses)."""
        world = World(n_brokers=1)
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world, attempt=0)
        )
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world, attempt=1)
        )
        world.sim.run_for(1.0)
        assert world.responders["b0"].requests_processed == 2
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 2

    def test_request_key(self):
        req = DiscoveryRequest(uuid="u", requester_host="h", requester_port=1, attempt=2)
        assert DiscoveryResponder.request_key(req) == ("u", 2)


class TestPropagation:
    def test_udp_arrival_propagates_through_network(self):
        world = World(n_brokers=3, topology=Topology.LINEAR, injection="single")
        box = inbox_of(world)
        # Send only to the head broker; the chain must carry it onward.
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(2.0)
        responders = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert responders == {"b0", "b1", "b2"}

    def test_forwarded_request_has_incremented_hop(self):
        world = World(n_brokers=2, topology=Topology.LINEAR)
        captured = []
        world.brokers[1].add_control_handler(
            REQUEST_TOPIC, lambda ev, peer: captured.append(decode_message(ev.payload))
        )
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(2.0)
        assert len(captured) >= 1
        assert captured[0].hop_count == 1

    def test_no_double_propagation_from_control_path(self):
        """A broker receiving the request via the control topic must not
        re-publish it (routing already forwards the event)."""
        world = World(n_brokers=3, topology=Topology.LINEAR)
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(2.0)
        # Each broker processed exactly once, responded exactly once.
        for responder in world.responders.values():
            assert responder.requests_processed == 1
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 3


class TestResponsePolicy:
    def _world_with_policy(self, policy: ResponsePolicyConfig) -> World:
        return World(n_brokers=1, broker_config=BrokerConfig(response_policy=policy))

    def test_credential_gate(self):
        policy = ResponsePolicyConfig(required_credentials=frozenset({"grid"}))
        world = self._world_with_policy(policy)
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.net.network.send_udp(
            world.client.udp_endpoint,
            world.brokers[0].udp_endpoint,
            make_request(world, uuid="req-2", credentials=frozenset({"grid"})),
        )
        world.sim.run_for(1.0)
        responses = [m for m in box if isinstance(m, DiscoveryResponse)]
        assert [r.request_uuid for r in responses] == ["req-2"]
        # The request without credentials was silenced and counted.
        assert world.responders["b0"].policy_rejections == 1

    def test_realm_gate_uses_requester_realm(self):
        policy = ResponsePolicyConfig(allowed_realms=frozenset({"lab"}))
        world = World(
            n_brokers=1,
            broker_config=BrokerConfig(response_policy=policy),
            client_realm="lab",
        )
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(1.0)
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 1

    def test_realm_gate_blocks_outsiders(self):
        policy = ResponsePolicyConfig(allowed_realms=frozenset({"lab"}))
        world = self._world_with_policy(policy)  # client realm = its site
        box = inbox_of(world)
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(1.0)
        assert [m for m in box if isinstance(m, DiscoveryResponse)] == []

    def test_propagation_continues_despite_policy_rejection(self):
        """A broker that declines to respond still forwards the request
        (responding and routing are independent duties)."""
        policy = ResponsePolicyConfig(required_credentials=frozenset({"secret"}))
        world = World(
            n_brokers=2,
            topology=Topology.LINEAR,
            broker_config=BrokerConfig(response_policy=policy),
        )
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(2.0)
        assert world.responders["b1"].requests_processed == 1


class TestStoppedBroker:
    def test_dead_broker_neither_responds_nor_propagates(self):
        world = World(n_brokers=2, topology=Topology.LINEAR)
        box = inbox_of(world)
        world.brokers[0].stop()
        world.net.network.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(2.0)
        assert [m for m in box if isinstance(m, DiscoveryResponse)] == []


class TestLazyControlPath:
    """The control-topic fast path: dedup before decode (PR 7).

    Without a flight recorder attached, _on_control_event extracts only
    the (uuid, attempt) key from the wire buffer, consults the LRU, and
    materialises the full request only on first sighting.
    """

    @staticmethod
    def _wrap(world: World, payload: bytes, uuid="ev-1"):
        from repro.core.messages import Event

        return Event(
            uuid=uuid,
            topic=REQUEST_TOPIC,
            payload=payload,
            source="peer",
            issued_at=world.sim.now,
        )

    def test_duplicate_suppressed_without_full_decode(self):
        from repro.core.codec import encode_message

        world = World(n_brokers=1)
        responder = world.responders["b0"]
        payload = encode_message(make_request(world, uuid="lazy-dup"))
        for i in range(3):
            responder._on_control_event(self._wrap(world, payload, uuid=f"e{i}"), None)
        world.sim.run_for(1.0)
        assert responder.requests_processed == 1
        assert responder.dedup.hits == 2  # two lazy-key LRU hits

    def test_corrupt_payload_ignored_without_crash(self):
        world = World(n_brokers=1)
        responder = world.responders["b0"]
        responder._on_control_event(self._wrap(world, b"\xde\xad\xbe\xef"), None)
        responder._on_control_event(self._wrap(world, b""), None)
        world.sim.run_for(1.0)
        assert responder.requests_processed == 0

    def test_truncated_request_ignored_without_crash(self):
        from repro.core.codec import encode_message

        world = World(n_brokers=1)
        responder = world.responders["b0"]
        payload = encode_message(make_request(world, uuid="lazy-cut"))
        responder._on_control_event(self._wrap(world, payload[:-3]), None)
        world.sim.run_for(1.0)
        assert responder.requests_processed == 0

    def test_invalid_body_forgets_key_so_clean_retransmit_processed(self):
        """A buffer whose skip-walk yields a key but whose body fails
        materialisation (invalid UTF-8 in a skipped field) must not
        poison the LRU against the clean retransmission."""
        from repro.core.codec import encode_message

        world = World(n_brokers=1)
        responder = world.responders["b0"]
        request = make_request(world, uuid="lazy-poison", realm="zz-realm-zz")
        clean = encode_message(request)
        corrupt = clean.replace(b"zz-realm-zz", b"\xff" * 11)
        assert corrupt != clean
        responder._on_control_event(self._wrap(world, corrupt, uuid="e-bad"), None)
        assert responder.requests_processed == 0
        responder._on_control_event(self._wrap(world, clean, uuid="e-good"), None)
        world.sim.run_for(1.0)
        assert responder.requests_processed == 1

    def test_non_request_payload_ignored_by_tag(self):
        from repro.core.codec import encode_message
        from repro.core.messages import Ack

        world = World(n_brokers=1)
        responder = world.responders["b0"]
        payload = encode_message(Ack(uuid="a", acked_by="x"))
        responder._on_control_event(self._wrap(world, payload), None)
        world.sim.run_for(1.0)
        assert responder.requests_processed == 0
        assert len(responder.dedup) == 0
