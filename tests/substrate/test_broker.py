"""Tests for the broker process: links, clients, routing, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BrokerConfig, Endpoint
from repro.core.messages import Event, PingRequest, PingResponse
from repro.substrate.broker import BROKER_UDP_PORT, DISCOVERY_GROUP, Broker
from repro.substrate.builder import BrokerNetwork, Topology
from repro.substrate.topics import topic_matches


def two_linked_brokers(seed=0) -> tuple[BrokerNetwork, Broker, Broker]:
    net = BrokerNetwork(seed=seed)
    a = net.add_broker("a", site="sa")
    b = net.add_broker("b", site="sb")
    net.link("a", "b")
    net.settle()
    return net, a, b


def make_event(broker: Broker, topic: str = "t/x", uuid: str | None = None) -> Event:
    return Event(
        uuid=uuid if uuid is not None else broker.ids(),
        topic=topic,
        payload=b"",
        source="test",
        issued_at=broker.utc(),
    )


class TestLinks:
    def test_link_establishes_both_directions(self):
        net, a, b = two_linked_brokers()
        assert a.peers == {"b"}
        assert b.peers == {"a"}
        assert a.link_count == 1

    def test_self_link_rejected(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        with pytest.raises(ValueError):
            a.link_to(a)

    def test_duplicate_link_ignored(self):
        net, a, b = two_linked_brokers()
        a.link_to(b)
        net.sim.run_for(1.0)
        assert a.link_count == 1

    def test_stop_closes_links(self):
        net, a, b = two_linked_brokers()
        a.stop()
        assert a.peers == frozenset()
        assert b.peers == frozenset()


class TestEventRouting:
    def test_event_reaches_every_broker_once(self):
        net = BrokerNetwork(seed=1)
        for i in range(5):
            net.add_broker(f"b{i}", site=f"s{i}")
        net.apply_topology(Topology.MESH)
        net.settle()
        event = make_event(net.brokers["b0"])
        net.brokers["b0"].publish_local(event)
        net.sim.run_for(2.0)
        for broker in net.broker_list():
            assert broker.events_routed == 1  # dedup stopped the echoes

    def test_duplicates_suppressed_counter(self):
        net = BrokerNetwork(seed=1)
        for i in range(4):
            net.add_broker(f"b{i}", site=f"s{i}")
        net.apply_topology(Topology.MESH)
        net.settle()
        net.brokers["b0"].publish_local(make_event(net.brokers["b0"]))
        net.sim.run_for(2.0)
        total_dups = sum(b.duplicates_suppressed for b in net.broker_list())
        assert total_dups > 0  # mesh floods produce echoes that were dropped

    def test_event_crosses_linear_chain(self):
        net = BrokerNetwork(seed=1)
        for i in range(5):
            net.add_broker(f"b{i}", site=f"s{i}")
        net.apply_topology(Topology.LINEAR)
        net.settle()
        net.brokers["b0"].publish_local(make_event(net.brokers["b0"]))
        net.sim.run_for(2.0)
        assert net.brokers["b4"].events_routed == 1

    def test_unconnected_brokers_do_not_receive(self):
        net = BrokerNetwork(seed=1)
        a = net.add_broker("a", site="sa")
        b = net.add_broker("b", site="sb")
        net.settle()
        a.publish_local(make_event(a))
        net.sim.run_for(2.0)
        assert b.events_routed == 0

    def test_control_handler_fires_once_per_event(self):
        net, a, b = two_linked_brokers()
        seen = []
        b.add_control_handler("ctl/**", lambda ev, peer: seen.append((ev.uuid, peer)))
        a.publish_local(make_event(a, topic="ctl/request"))
        net.sim.run_for(2.0)
        assert len(seen) == 1
        assert seen[0][1] == "a"  # arrived from peer a

    def test_control_handler_ignores_other_topics(self):
        net, a, b = two_linked_brokers()
        seen = []
        b.add_control_handler("ctl/**", lambda ev, peer: seen.append(ev))
        a.publish_local(make_event(a, topic="data/stuff"))
        net.sim.run_for(2.0)
        assert seen == []

    def test_malformed_handler_pattern_rejected_at_registration(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        for bad in ("", "ctl//x", "ctl/**/x", "ctl/x*"):
            with pytest.raises(ValueError):
                a.add_control_handler(bad, lambda ev, peer: None)
        a.publish_local(make_event(a, topic="ctl/x"))  # nothing half-registered
        assert a.events_routed == 1

    def test_handler_memo_agrees_with_topic_matches(self):
        """The per-topic handler memo against its oracle, before and
        after registrations that must reset it."""
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        patterns = ["ctl/**", "ctl/*", "ctl/x", "*/x", "**", "data/x/y", "ctl/x/**"]
        topics = ["ctl/x", "ctl/y", "ctl", "data/x", "data/x/y", "ctl/x/y"]
        calls: list[tuple[str, str]] = []
        registered: list[str] = []
        for pattern in patterns:
            got = a.add_control_handler(
                pattern, lambda ev, peer, pattern=pattern: calls.append((pattern, ev.topic))
            )
            assert callable(got)
            registered.append(pattern)
            for topic in topics:
                calls.clear()
                a.publish_local(make_event(a, topic=topic))
                a.publish_local(make_event(a, topic=topic))  # second time: from the memo
                expected = [(p, topic) for p in registered if topic_matches(p, topic)]
                assert calls == expected + expected

    def test_publisher_is_not_called_back(self):
        net, a, b = two_linked_brokers()
        heard = {"mine": [], "other": [], "remote": []}
        mine = a.add_control_handler("ctl/**", lambda ev, peer: heard["mine"].append(ev.uuid))
        a.add_control_handler("ctl/x", lambda ev, peer: heard["other"].append(ev.uuid))
        b.add_control_handler("ctl/x", lambda ev, peer: heard["remote"].append(ev.uuid))
        a.publish_local(make_event(a, topic="ctl/x", uuid="named"), publisher=mine)
        a.publish_local(make_event(a, topic="ctl/x", uuid="anonymous"))
        net.sim.run_for(2.0)
        assert heard == {
            "mine": ["anonymous"],
            "other": ["named", "anonymous"],
            "remote": ["named", "anonymous"],
        }

    def test_dedup_capacity_respected(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa", config=BrokerConfig(dedup_capacity=2))
        net.settle()
        a.publish_local(make_event(a, uuid="e1"))
        a.publish_local(make_event(a, uuid="e2"))
        a.publish_local(make_event(a, uuid="e3"))  # evicts e1
        routed_before = a.events_routed
        a.publish_local(make_event(a, uuid="e1"))  # processed again
        assert a.events_routed == routed_before + 1


class TestUDP:
    def test_builtin_ping_echo(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        net.network.register_host("probe.example", "sb")
        got = []
        net.network.bind_udp(Endpoint("probe.example", 99), lambda m, s: got.append(m))
        net.settle()
        ping = PingRequest(uuid="p1", sent_at=1.25, reply_host="probe.example", reply_port=99)
        net.network.send_udp(Endpoint("probe.example", 99), a.udp_endpoint, ping)
        net.sim.run_for(1.0)
        assert len(got) == 1
        assert isinstance(got[0], PingResponse)
        assert got[0].uuid == "p1"
        assert got[0].sent_at == 1.25
        assert got[0].broker_id == "a"

    def test_custom_udp_handler_takes_priority(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        hits = []
        a.add_udp_handler(PingRequest, lambda m, s: hits.append(m))
        net.network.register_host("probe.example", "sb")
        net.network.bind_udp(Endpoint("probe.example", 99), lambda m, s: None)
        net.settle()
        ping = PingRequest(uuid="p1", sent_at=0.0, reply_host="probe.example", reply_port=99)
        net.network.send_udp(Endpoint("probe.example", 99), a.udp_endpoint, ping)
        net.sim.run_for(1.0)
        assert len(hits) == 1

    def test_duplicate_udp_handler_rejected(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        a.add_udp_handler(PingRequest, lambda m, s: None)
        with pytest.raises(ValueError):
            a.add_udp_handler(PingRequest, lambda m, s: None)

    def test_stopped_broker_ignores_udp(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        net.network.register_host("probe.example", "sb")
        got = []
        net.network.bind_udp(Endpoint("probe.example", 99), lambda m, s: got.append(m))
        net.settle()
        a.stop()
        ping = PingRequest(uuid="p1", sent_at=0.0, reply_host="probe.example", reply_port=99)
        net.network.send_udp(Endpoint("probe.example", 99), Endpoint(a.host, BROKER_UDP_PORT), ping)
        net.sim.run_for(1.0)
        assert got == []


class TestLifecycle:
    """A stopped broker is restarted with ``start()``; ``started`` follows
    ``alive`` at every step."""

    def test_stop_then_start_serves_again(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa", realm="lab")
        a.stop()
        probe = Endpoint("probe.example", 99)
        net.network.register_host(probe.host, "sb", realm="lab")
        got = []
        net.network.bind_udp(probe, lambda m, s: got.append(m))

        def ping(uuid: str) -> None:
            request = PingRequest(uuid=uuid, sent_at=0.0, reply_host=probe.host, reply_port=probe.port)
            net.network.send_udp(probe, a.udp_endpoint, request)
            net.sim.run_for(1.0)

        assert a.started is a.alive is False
        a.start()
        net.settle()
        assert a.started is a.alive is True
        ping("before")
        assert [m.uuid for m in got] == ["before"]

        a.stop()
        assert a.started is a.alive is False
        assert a.udp_endpoint not in net.network.multicast_members(DISCOVERY_GROUP)
        ping("while-stopped")
        assert [m.uuid for m in got] == ["before"]

        a.start()  # no reaching in to reset the started flag first
        assert a.started is a.alive is True
        assert a.udp_endpoint in net.network.multicast_members(DISCOVERY_GROUP)
        assert net.network.multicast(probe, DISCOVERY_GROUP, PingRequest(
            uuid="mc", sent_at=0.0, reply_host=probe.host, reply_port=probe.port
        )) == 1
        net.sim.run_for(1.0)
        ping("after")
        assert [m.uuid for m in got] == ["before", "mc", "after"]
        assert all(isinstance(m, PingResponse) and m.broker_id == "a" for m in got)


class TestMetrics:
    def test_metrics_reflect_links(self):
        net, a, b = two_linked_brokers()
        m = a.usage_metrics()
        assert m.num_links == 1
        assert m.num_connections == 0
        assert 0 < m.free_memory < m.total_memory

    def test_cpu_grows_with_load(self):
        net, a, b = two_linked_brokers()
        solo = BrokerNetwork().add_broker("solo", site="sx")
        assert a.usage_metrics().cpu_load > solo.usage_metrics().cpu_load

    def test_metrics_are_valid_usage_metrics(self):
        net, a, b = two_linked_brokers()
        m = a.usage_metrics()  # constructor validates ranges
        assert 0.0 <= m.cpu_load <= 1.0
