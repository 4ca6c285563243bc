"""Graceful drain: in-flight responses finish, registration withdraws.

The SIGTERM path of a live broker process: `drain()` must (1) keep the
promise made to clients whose responses are already scheduled, (2) go
deaf to new requests, (3) stop heartbeats and overwrite the BDN lease
with an already-lapsed one so the broker disappears from discovery
immediately instead of at lease expiry.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import Endpoint
from repro.core.messages import BrokerAdvertisement, DiscoveryRequest, DiscoveryResponse
from repro.discovery.advertisement import WITHDRAW_TTL, withdraw_registration
from tests.discovery.conftest import World
from tests.discovery.test_responder_lifecycle import inbox_of, make_request


class TestDrain:
    def test_inflight_response_still_fires_new_requests_ignored(self):
        world = World(n_brokers=1)
        responder = world.responders["b0"]
        box = inbox_of(world)
        # Schedule one response (processing delay pending), then drain.
        responder._on_udp_request(make_request(world), world.client.udp_endpoint)
        assert responder.pending_responses == 1
        responder.drain()
        assert responder.draining is True
        # A request arriving mid-drain is ignored...
        responder._on_udp_request(make_request(world, uuid="req-2"), world.client.udp_endpoint)
        assert responder.requests_processed == 1
        world.sim.run_for(1.0)
        # ...but the in-flight one was answered.
        assert responder.responses_sent == 1
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 1
        assert responder.pending_responses == 0

    def test_drain_is_idempotent_and_start_clears_it(self):
        world = World(n_brokers=1)
        responder = world.responders["b0"]
        responder.drain()
        responder.drain()  # no-op
        assert responder.draining is True
        responder.start()
        assert responder.draining is False
        responder._on_udp_request(make_request(world), world.client.udp_endpoint)
        assert responder.requests_processed == 1

    def test_drain_detaches_heartbeats(self):
        world = World(n_brokers=1, register=False)
        responder = world.responders["b0"]
        ads = []
        fake_bdn = Endpoint("fake-bdn.host", 7000)
        world.net.network.register_host("fake-bdn.host", "fake-site")
        world.net.network.bind_udp(fake_bdn, lambda m, s: ads.append(m))
        responder.attach_heartbeat([fake_bdn], interval=1.0)
        world.sim.run_for(2.5)
        assert responder.heartbeat is not None
        responder.drain()
        assert responder.heartbeat is None
        before = len(ads)
        world.sim.run_for(5.0)
        assert len(ads) == before  # silence after drain

    def test_withdrawal_expires_the_bdn_lease_immediately(self):
        world = World(n_brokers=2)
        broker = world.brokers[0]
        now = world.bdn.runtime.now
        assert "b0" in world.bdn.store.broker_ids(now)
        world.responders["b0"].drain(withdraw_endpoints=[world.bdn.udp_endpoint])
        world.sim.run_for(0.5)
        now = world.bdn.runtime.now
        assert "b0" not in world.bdn.store.broker_ids(now)
        assert "b1" in world.bdn.store.broker_ids(now)
        # The broker itself is untouched: drain is a responder affair.
        assert broker.alive

    def test_withdraw_registration_sends_lapsed_leases(self):
        world = World(n_brokers=1, register=False)
        broker = world.brokers[0]
        seen = []
        sink = Endpoint("sink.host", 7000)
        world.net.network.register_host("sink.host", "sink-site")
        world.net.network.bind_udp(sink, lambda m, s: seen.append(m))
        sent = withdraw_registration(broker, [sink])
        world.sim.run_for(0.5)
        assert sent == 1
        ads = [m for m in seen if isinstance(m, BrokerAdvertisement)]
        assert len(ads) == 1
        assert ads[0].ttl == WITHDRAW_TTL


class TestDrainedDiscovery:
    def test_drained_broker_leaves_discovery_results(self):
        """After a drain+withdraw, fresh discoveries select other brokers."""
        world = World(n_brokers=3)
        outcome = world.discover()
        assert outcome.success
        world.responders["b0"].drain(withdraw_endpoints=[world.bdn.udp_endpoint])
        world.sim.run_for(1.0)
        outcome = world.discover()
        assert outcome.success
        assert outcome.selected != "b0"
        assert all(c.broker_id != "b0" for c in outcome.candidates)
