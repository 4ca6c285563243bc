"""Tests for the UDP ping service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.core.messages import PingResponse
from repro.discovery.ping import Pinger
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import UniformLoss
from repro.simnet.node import Node
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.substrate.builder import BrokerNetwork


def ping_world(loss=None):
    net = BrokerNetwork(
        latency=UniformLatencyModel(base=0.010, jitter_fraction=0.0), loss=loss
    )
    broker = net.add_broker("bk", site="s-broker")
    node = Node("pinger", "pinger.host", net.network, np.random.default_rng(3), site="s-client")
    reply = node.endpoint(9999)
    pinger = Pinger(node, reply)
    net.network.bind_udp(reply, lambda m, s: pinger.on_response(m, s))
    net.settle()
    return net, broker, pinger


class TestPinger:
    def test_rtt_measured(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        rtt = pinger.average_rtt("bk")
        assert rtt is not None
        assert rtt == pytest.approx(0.020, rel=0.1)  # two one-way trips

    def test_average_over_repeats(self):
        net, broker, pinger = ping_world()
        for _ in range(4):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") == 4
        assert pinger.pongs_received == 4

    def test_no_data_returns_none(self):
        net, broker, pinger = ping_world()
        assert pinger.average_rtt("ghost") is None
        assert pinger.sample_count("ghost") == 0

    def test_lost_pings_simply_missing(self):
        net, broker, pinger = ping_world(loss=UniformLoss(0.999))
        for _ in range(5):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") <= 1

    def test_unknown_response_ignored(self):
        net, broker, pinger = ping_world()
        fake = PingResponse(uuid="never-sent", sent_at=0.0, broker_id="x")
        pinger.on_response(fake, Endpoint("ghost", 1))
        assert pinger.pongs_received == 0

    def test_duplicate_response_ignored(self):
        net, broker, pinger = ping_world()
        uuid = pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        # Replay the same pong: the outstanding entry is gone.
        fake = PingResponse(uuid=uuid, sent_at=0.0, broker_id="bk")
        pinger.on_response(fake, Endpoint("ghost", 1))
        assert pinger.sample_count("bk") == 1

    def test_default_key_is_target_host(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint)
        net.sim.run_for(1.0)
        assert pinger.average_rtt(broker.host) is not None

    def test_sample_window_bounded(self):
        net, broker, pinger = ping_world()
        pinger._max_samples = 3
        for _ in range(6):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") == 3

    def test_last_heard_tracked(self):
        net, broker, pinger = ping_world()
        assert pinger.last_heard("bk") is None
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.last_heard("bk") == pytest.approx(net.sim.now, abs=1.0)

    def test_on_rtt_callback(self):
        net, broker, pinger = ping_world()
        seen = []
        pinger.on_rtt = lambda key, rtt: seen.append((key, rtt))
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert len(seen) == 1
        assert seen[0][0] == "bk"

    def test_forget_and_clear(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        pinger.forget("bk")
        assert pinger.average_rtt("bk") is None
        assert pinger.last_heard("bk") is None

    def test_known_keys(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="zz")
        pinger.ping(broker.udp_endpoint, key="aa")
        net.sim.run_for(1.0)
        assert pinger.known_keys() == ["aa", "zz"]

    def test_invalid_max_samples(self):
        net, broker, _ = ping_world()
        node = Node("p2", "p2.host", net.network, np.random.default_rng(0), site="sx")
        with pytest.raises(ValueError):
            Pinger(node, node.endpoint(1), max_samples=0)

    def test_invalid_outstanding_timeout(self):
        net, broker, _ = ping_world()
        node = Node("p3", "p3.host", net.network, np.random.default_rng(0), site="sx")
        with pytest.raises(ValueError):
            Pinger(node, node.endpoint(1), outstanding_timeout=0.0)


class TestOutstandingExpiry:
    def test_lost_pings_do_not_accumulate(self):
        """The leak: with every pong lost, the outstanding table used to
        grow by one entry per ping, forever."""
        net, broker, pinger = ping_world(loss=UniformLoss(0.999))
        for _ in range(50):
            pinger.ping(broker.udp_endpoint, key="bk")
            net.sim.run_for(1.0)  # default timeout is 30 s
        assert len(pinger._outstanding) <= 31
        assert pinger.pings_expired >= 19
        net.sim.run_for(31.0)
        pinger.ping(broker.udp_endpoint, key="bk")
        assert len(pinger._outstanding) == 1

    def test_answered_pings_do_not_expire(self):
        net, broker, pinger = ping_world()
        for _ in range(5):
            pinger.ping(broker.udp_endpoint, key="bk")
            net.sim.run_for(1.0)
        assert pinger.pings_expired == 0
        assert pinger.pongs_received == 5
        assert len(pinger._outstanding) == 0

    def test_pong_after_deadline_ignored(self):
        net, broker, pinger = ping_world(loss=UniformLoss(0.999))
        uuid = pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(31.0)  # past the 30 s deadline
        late = PingResponse(uuid=uuid, sent_at=0.0, broker_id="bk")
        pinger.on_response(late, Endpoint("ghost", 1))
        assert pinger.sample_count("bk") == 0
        assert pinger.pongs_received == 0
        assert pinger.pings_expired == 1

    def test_pong_to_a_cancelled_ping_ignored(self):
        net, broker, pinger = ping_world()
        pinger.ping(broker.udp_endpoint, key="bk")
        dropped = pinger.ping(broker.udp_endpoint, key="bk")
        pinger.cancel([dropped, "never-sent"])
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") == 1
        assert pinger.pongs_received == 1
        assert list(pinger._outstanding) == []
