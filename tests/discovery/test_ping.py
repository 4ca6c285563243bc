"""Tests for the UDP ping service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.core.messages import PingResponse
from repro.discovery.ping import MAX_SAMPLES, OUTSTANDING_TIMEOUT, Pinger
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import UniformLoss
from repro.simnet.node import Node
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
        for _ in range(MAX_SAMPLES + 3):
            pinger.ping(broker.udp_endpoint, key="bk")
        net.sim.run_for(1.0)
        assert pinger.sample_count("bk") == MAX_SAMPLES

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


class TestExpiryMatchesAWalkOnEveryCall:
    """The pinger walks its outstanding table only once the oldest
    deadline is due.  Its observable state must be what walking on every
    ping and every pong gives: the same ``pings_expired``, the same
    outstanding uuids in the same order, the same pongs accepted."""

    class Reference:
        """Expire from the front on every ping and pong (no shortcut)."""

        def __init__(self) -> None:
            self.outstanding: dict[str, float] = {}
            self.expired = 0

        def walk(self, now: float) -> None:
            while self.outstanding:
                uuid = next(iter(self.outstanding))
                if self.outstanding[uuid] > now:
                    break
                del self.outstanding[uuid]
                self.expired += 1

        def ping(self, uuid: str, now: float) -> None:
            self.walk(now)
            self.outstanding[uuid] = now + OUTSTANDING_TIMEOUT

        def pong(self, uuid: str, now: float) -> bool:
            self.walk(now)
            return self.outstanding.pop(uuid, None) is not None

        def cancel(self, uuids: list[str]) -> None:
            for uuid in uuids:
                self.outstanding.pop(uuid, None)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_mix_of_pings_pongs_cancels_and_waits(self, seed):
        net, broker, pinger = ping_world()
        # Nothing is bound there: every ping is dropped, and each pong
        # below is handed to the pinger by the test.
        void = Endpoint(broker.host, 4242)
        ref = self.Reference()
        rng = np.random.default_rng(seed)
        sent: list[str] = ["never-sent"]
        waits = (0.0, 0.05, 1.0, 7.5, OUTSTANDING_TIMEOUT - 1e-9, OUTSTANDING_TIMEOUT, 31.0)
        accepted = 0
        for _ in range(1500):
            now = net.sim.now
            action = rng.choice(["ping", "ping", "pong", "pong", "cancel", "wait"])
            if action == "ping":
                uuid = pinger.ping(void, key="bk")
                ref.ping(uuid, now)
                sent.append(uuid)
            elif action == "pong":
                # Mostly recent pings, sometimes an old or unknown one.
                uuid = sent[-1 - int(rng.integers(min(len(sent), 4)))]
                if rng.random() < 0.3:
                    uuid = sent[int(rng.integers(len(sent)))]
                before = pinger.pongs_received
                pinger.on_response(
                    PingResponse(uuid=uuid, sent_at=-1e9, broker_id="bk"), void
                )
                took = pinger.pongs_received - before
                assert took == ref.pong(uuid, now)
                accepted += took
            elif action == "cancel":
                picks = [sent[int(rng.integers(len(sent)))] for _ in range(int(rng.integers(1, 4)))]
                pinger.cancel(picks)
                ref.cancel(picks)
            else:
                wait = waits[int(rng.integers(len(waits)))]
                # A wait of exactly the timeout lands on a deadline.
                net.sim.run_for(wait)
            assert pinger.pings_expired == ref.expired
            assert list(pinger._outstanding) == list(ref.outstanding)
        # The walk went through every kind of outcome.
        assert ref.expired > 50 and accepted > 50
