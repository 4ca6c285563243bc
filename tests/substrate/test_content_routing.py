"""Tests for subscription-aware content routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.messages import Event
from repro.substrate.builder import BrokerNetwork, Topology
from repro.substrate.client import PubSubClient
from repro.substrate.content_routing import install_content_routing


def chain_world(n=4, seed=0):
    net = BrokerNetwork(seed=seed)
    for i in range(n):
        net.add_broker(f"b{i}", site=f"s{i}")
    net.apply_topology(Topology.LINEAR)
    net.settle()
    return net


def attach(net, name, broker):
    client = PubSubClient(
        name, f"{name}.host", net.network,
        np.random.default_rng(abs(hash(name)) % 2**31), site=f"cs-{name}",
    )
    client.start()
    client.connect(net.brokers[broker].client_endpoint)
    net.sim.run_for(1.0)
    return client


def publish_event(net, broker_name, topic, uuid=None):
    broker = net.brokers[broker_name]
    broker.publish_local(
        Event(
            uuid=uuid if uuid is not None else broker.ids(),
            topic=topic,
            payload=b"",
            source="t",
            issued_at=0.0,
        )
    )
    net.sim.run_for(2.0)


class TestInterestPropagation:
    def test_subscription_propagates_along_chain(self):
        net = chain_world()
        routing = install_content_routing(net)
        sub = attach(net, "alice", "b3")
        sub.subscribe("news/**")
        net.sim.run_for(2.0)
        # Every broker upstream knows interest lies toward b3.
        assert ("b3", "news/**") in routing.link_interests("b2", "b3")
        assert ("b3", "news/**") in routing.link_interests("b1", "b2")
        assert ("b3", "news/**") in routing.link_interests("b0", "b1")

    def test_unsubscribe_withdraws_interest(self):
        net = chain_world()
        routing = install_content_routing(net)
        sub = attach(net, "alice", "b3")
        sub.subscribe("news/**")
        net.sim.run_for(2.0)
        sub.unsubscribe("news/**")
        net.sim.run_for(2.0)
        assert routing.link_interests("b0", "b1") == frozenset()

    def test_client_disconnect_withdraws_interest(self):
        net = chain_world()
        routing = install_content_routing(net)
        sub = attach(net, "alice", "b3")
        sub.subscribe("news/**")
        net.sim.run_for(2.0)
        sub.disconnect()
        net.sim.run_for(2.0)
        assert routing.link_interests("b0", "b1") == frozenset()

    def test_second_subscriber_same_pattern_no_extra_announcements(self):
        net = chain_world()
        routing = install_content_routing(net)
        a = attach(net, "alice", "b3")
        a.subscribe("news/**")
        net.sim.run_for(2.0)
        before = routing.interest_messages
        b = attach(net, "bob", "b3")
        b.subscribe("news/**")
        net.sim.run_for(2.0)
        assert routing.interest_messages == before  # pattern already announced

    def test_preexisting_subscriptions_seeded_at_install(self):
        net = chain_world()
        sub = attach(net, "alice", "b3")
        sub.subscribe("news/**")
        net.sim.run_for(1.0)
        routing = install_content_routing(net)
        net.sim.run_for(2.0)
        assert ("b3", "news/**") in routing.link_interests("b0", "b1")


class TestSelectiveForwarding:
    def test_event_pruned_where_no_interest(self):
        net = chain_world()
        install_content_routing(net)
        sub = attach(net, "alice", "b1")
        sub.subscribe("news/**")
        net.sim.run_for(2.0)
        publish_event(net, "b0", "news/x")
        # b0 (publisher) and b1 (subscriber) processed it; b2/b3 never saw it.
        assert net.brokers["b1"].events_routed == 1
        assert net.brokers["b2"].events_routed == 0
        assert net.brokers["b3"].events_routed == 0
        assert len(sub.received) == 1

    def test_no_interest_no_forwarding_at_all(self):
        net = chain_world()
        install_content_routing(net)
        publish_event(net, "b0", "nobody/cares")
        assert all(net.brokers[f"b{i}"].events_routed == 0 for i in (1, 2, 3))

    def test_services_topics_always_flood(self):
        net = chain_world()
        install_content_routing(net)
        publish_event(net, "b0", "Services/BrokerDiscovery/Request")
        assert all(net.brokers[f"b{i}"].events_routed == 1 for i in (1, 2, 3))

    def test_custom_flood_patterns(self):
        net = chain_world()
        install_content_routing(net).flood_patterns = ("alerts/**",)
        publish_event(net, "b0", "alerts/fire")
        assert net.brokers["b3"].events_routed == 1

    def test_interest_at_both_ends(self):
        net = chain_world()
        install_content_routing(net)
        left = attach(net, "l", "b0")
        right = attach(net, "r", "b3")
        left.subscribe("data/**")
        right.subscribe("data/**")
        net.sim.run_for(2.0)
        publish_event(net, "b1", "data/x")
        assert len(left.received) == 1
        assert len(right.received) == 1

    def test_wildcard_interest_matches_concrete_topics(self):
        net = chain_world()
        install_content_routing(net)
        sub = attach(net, "alice", "b3")
        sub.subscribe("a/*/c")
        net.sim.run_for(2.0)
        publish_event(net, "b0", "a/b/c")
        publish_event(net, "b0", "a/b/d")
        assert [e.topic for e in sub.received] == ["a/b/c"]

    def test_transmission_savings_vs_flooding(self):
        """The point of content routing: fewer link transmissions when
        interest is localized."""

        def transmissions(content: bool) -> int:
            net = chain_world(n=6, seed=9)
            if content:
                install_content_routing(net)
            sub = attach(net, "edge", "b1")
            sub.subscribe("news/**")
            net.sim.run_for(2.0)
            for k in range(10):
                publish_event(net, "b0", f"news/item{k}")
            return sum(b.events_forwarded for b in net.broker_list())

        assert transmissions(content=True) < transmissions(content=False)


class TestDiscoveryStillWorks:
    def test_discovery_over_content_routed_network(self):
        """Discovery requests ride the always-flood list, so the whole
        protocol keeps working on a content-routed network."""
        from tests.discovery.conftest import World

        world = World(n_brokers=4, topology=Topology.LINEAR, injection="single")
        install_content_routing(world.net)
        outcome = world.discover()
        assert outcome.success
        assert len(outcome.candidates) == 4  # the request reached every broker


class TestServiceInterests:
    def test_add_local_interest_announces(self):
        net = chain_world()
        routing = install_content_routing(net)
        net.brokers["b3"].add_local_interest("archive/**")
        net.sim.run_for(2.0)
        assert ("b3", "archive/**") in routing.link_interests("b0", "b1")

    def test_local_interest_before_install_is_seeded(self):
        net = chain_world()
        net.brokers["b3"].add_local_interest("archive/**")
        routing = install_content_routing(net)
        net.sim.run_for(2.0)
        assert ("b3", "archive/**") in routing.link_interests("b0", "b1")

    def test_local_interest_survives_subscriber_departure(self):
        """A service interest must not be withdrawn when the last client
        subscriber of the same pattern leaves."""
        net = chain_world()
        routing = install_content_routing(net)
        net.brokers["b3"].add_local_interest("news/**")
        sub = attach(net, "alice", "b3")
        sub.subscribe("news/**")
        net.sim.run_for(2.0)
        sub.disconnect()
        net.sim.run_for(2.0)
        assert ("b3", "news/**") in routing.link_interests("b0", "b1")

    def test_add_local_interest_idempotent(self):
        net = chain_world()
        routing = install_content_routing(net)
        net.brokers["b3"].add_local_interest("x/**")
        net.sim.run_for(1.0)
        count = routing.interest_messages
        net.brokers["b3"].add_local_interest("x/**")
        net.sim.run_for(1.0)
        assert routing.interest_messages == count

    def test_invalid_pattern_rejected(self):
        net = chain_world()
        with pytest.raises(ValueError):
            net.brokers["b0"].add_local_interest("**/bad")

    def test_reliable_archive_not_starved(self):
        """The regression the services example exposed: under content
        routing, an archive's control-handler consumption requires a
        declared interest or reliable streams never reach it."""
        import numpy as np

        from repro.substrate.client import PubSubClient
        from repro.substrate.reliable import ReliableDeliveryService, ReliablePublisher

        net = chain_world()
        service = ReliableDeliveryService(net.brokers["b3"], pattern="grid/**")
        install_content_routing(net)
        pub_client = PubSubClient(
            "pub", "pub.host", net.network, np.random.default_rng(1), site="cp"
        )
        pub_client.start()
        pub_client.connect(net.brokers["b0"].client_endpoint)
        net.sim.run_for(1.0)
        publisher = ReliablePublisher(pub_client)
        publisher.publish("grid/a", b"x")
        net.sim.run_for(2.0)
        # No client subscribers anywhere, yet the archive got the event.
        assert len(service.archive.fetch("pub:grid/a", 1, 1)) == 1


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_property_content_routing_equivalent_to_flooding(seed):
    """Delivery equivalence: for the same random world (topology,
    subscriptions, publications), every subscriber receives exactly the
    same set of events under content routing as under flooding --
    content routing may only remove *transmissions*, never deliveries."""
    import networkx as nx

    rng = np.random.default_rng(seed)
    n = 8
    graph = nx.barabasi_albert_graph(n, 2, seed=int(rng.integers(0, 2**31)))
    graph = nx.relabel_nodes(graph, {i: f"b{i:02d}" for i in graph.nodes})
    patterns = ["news/**", "sports/*", "sports/tennis", "jobs/*/status", "**"]
    topics = ["news/a", "news/a/b", "sports/tennis", "sports/golf",
              "jobs/7/status", "misc/x"]
    # Draw the random plan once so both worlds get the identical setup.
    subs_plan = [
        (f"cl{i}", f"b{int(rng.integers(n)):02d}", patterns[int(rng.integers(len(patterns)))])
        for i in range(6)
    ]
    pub_plan = [
        (f"b{int(rng.integers(n)):02d}", topics[int(rng.integers(len(topics)))], f"ev-{k}")
        for k in range(12)
    ]

    def run(content: bool) -> dict[str, set[str]]:
        net = BrokerNetwork(seed=seed)
        for i in range(n):
            net.add_broker(f"b{i:02d}", site=f"s{i}")
        for a, b in graph.edges:
            net.link(a, b)
        net.settle()
        if content:
            install_content_routing(net)
        clients = {}
        for name, broker, pattern in subs_plan:
            if name not in clients:
                clients[name] = attach(net, name, broker)
            clients[name].subscribe(pattern)
        net.sim.run_for(3.0)
        for broker_name, topic, uuid in pub_plan:
            publish_event(net, broker_name, topic, uuid=uuid)
        net.sim.run_for(3.0)
        return {name: {e.uuid for e in c.received} for name, c in clients.items()}

    assert run(content=True) == run(content=False)
