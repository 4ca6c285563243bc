"""Edge-case tests for broker link control traffic and network sizing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.core.messages import Ack
from repro.simnet.latency import BANDWIDTH, UniformLatencyModel
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.substrate.builder import BrokerNetwork, Topology


class TestSendToPeer:
    def test_unknown_peer_returns_false(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        assert a.send_to_peer("ghost", Ack(uuid="u", acked_by="a")) is False

    def test_live_peer_returns_true(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        b = net.add_broker("b", site="sb")
        net.link("a", "b")
        net.settle()
        assert a.send_to_peer("b", Ack(uuid="u", acked_by="a")) is True

    def test_closed_link_returns_false(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        b = net.add_broker("b", site="sb")
        net.link("a", "b")
        net.settle()
        b.stop()
        assert a.send_to_peer("b", Ack(uuid="u", acked_by="a")) is False


class TestInterestPatterns:
    def test_union_of_subscriptions_and_services(self):
        from repro.substrate.client import PubSubClient

        net = BrokerNetwork()
        broker = net.add_broker("a", site="sa")
        net.settle()
        broker.add_local_interest("svc/**")
        client = PubSubClient("c", "c.host", net.network, np.random.default_rng(1), site="cs")
        client.start()
        client.connect(broker.client_endpoint)
        net.sim.run_for(1.0)
        client.subscribe("news/**")
        net.sim.run_for(0.5)
        assert broker.interest_patterns() == {"svc/**", "news/**"}


class TestMessageSizeDelays:
    def test_bigger_payload_arrives_later(self):
        """The latency model's bandwidth term must actually bite."""
        from repro.core.messages import Event

        sim = Simulator()
        net = Network(
            sim,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.0),
            rng=np.random.default_rng(0),
        )
        net.register_host("a.x", "sa")
        net.register_host("b.x", "sb")
        arrivals = {}
        net.bind_udp(
            Endpoint("b.x", 9), lambda m, s: arrivals.setdefault(m.uuid, sim.now)
        )
        small = Event(uuid="small", topic="t", payload=b"", source="s", issued_at=0.0)
        large = Event(uuid="large", topic="t", payload=b"x" * 50_000, source="s", issued_at=0.0)
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 9), small)
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 9), large)
        sim.run()
        # 50 KB at 1.25 MB/s adds 40 ms of serialisation delay.
        assert arrivals["large"] - arrivals["small"] >= 50_000 / BANDWIDTH
