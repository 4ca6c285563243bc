"""Tests for the broker-network builder and topologies."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.substrate.builder import BrokerNetwork, Topology


def build(n=5, topology=None, seed=0) -> BrokerNetwork:
    net = BrokerNetwork(seed=seed)
    for i in range(n):
        net.add_broker(f"b{i}", site=f"s{i}")
    if topology:
        net.apply_topology(topology)
    net.settle()
    return net


class TestConstruction:
    def test_duplicate_broker_rejected(self):
        net = BrokerNetwork()
        net.add_broker("a", site="s")
        with pytest.raises(ValueError):
            net.add_broker("a", site="s2")

    def test_default_host_naming(self):
        net = BrokerNetwork()
        broker = net.add_broker("a", site="s1")
        assert broker.host == "a.s1"

    def test_same_seed_reproduces_world(self):
        n1 = build(3, Topology.RANDOM_TREE, seed=9)
        n2 = build(3, Topology.RANDOM_TREE, seed=9)
        assert nx.utils.graphs_equal(n1.graph(), n2.graph())

    def test_self_link_rejected(self):
        net = BrokerNetwork()
        net.add_broker("a", site="s")
        with pytest.raises(ValueError):
            net.link("a", "a")


class TestTopologies:
    def test_unconnected_has_no_edges(self):
        net = build(5, Topology.UNCONNECTED)
        assert net.graph().number_of_edges() == 0

    def test_star_shape(self):
        net = build(5, Topology.STAR)
        g = net.graph()
        assert g.number_of_edges() == 4
        assert g.degree["b0"] == 4  # first broker is the hub
        assert all(g.degree[f"b{i}"] == 1 for i in range(1, 5))

    def test_linear_shape(self):
        net = build(5, Topology.LINEAR)
        g = net.graph()
        assert g.number_of_edges() == 4
        assert g.degree["b0"] == 1 and g.degree["b4"] == 1
        assert all(g.degree[f"b{i}"] == 2 for i in (1, 2, 3))

    def test_ring_shape(self):
        net = build(5, Topology.RING)
        g = net.graph()
        assert g.number_of_edges() == 5
        assert all(d == 2 for _, d in g.degree)

    def test_mesh_shape(self):
        net = build(4, Topology.MESH)
        assert net.graph().number_of_edges() == 6

    def test_random_tree_is_tree(self):
        net = build(8, Topology.RANDOM_TREE)
        g = net.graph()
        assert nx.is_tree(g)

    def test_links_are_live_after_settle(self):
        net = build(5, Topology.STAR)
        assert net.brokers["b0"].link_count == 4
        for i in range(1, 5):
            assert net.brokers[f"b{i}"].peers == {"b0"}

    def test_unknown_topology_rejected(self):
        net = BrokerNetwork()
        net.add_broker("a", site="s1")
        net.add_broker("b", site="s2")
        with pytest.raises(ValueError):
            net.apply_topology("moebius")

    def test_ring_requires_three(self):
        net = BrokerNetwork()
        net.add_broker("a", site="s1")
        net.add_broker("b", site="s2")
        with pytest.raises(ValueError):
            net.apply_topology(Topology.RING)

    def test_custom_order(self):
        net = BrokerNetwork()
        for name in ("x", "y", "z"):
            net.add_broker(name, site=f"s-{name}")
        net.apply_topology(Topology.STAR, ["z", "x", "y"])
        assert net.graph().degree["z"] == 2


class TestSpanningTree:
    def test_installed_on_every_broker(self):
        net = build(5, Topology.MESH)
        strategy = net.install_spanning_tree_routing()
        assert all(b.routing is strategy for b in net.broker_list())

    def test_tree_spans_component(self):
        net = build(6, Topology.MESH)
        strategy = net.install_spanning_tree_routing()
        g = nx.Graph()
        for name in net.brokers:
            for peer in strategy.tree_neighbors(name):
                g.add_edge(name, peer)
        assert nx.is_tree(g)
        assert set(g.nodes) == set(net.brokers)

    def test_event_still_reaches_all_with_fewer_transmissions(self):
        from repro.core.messages import Event

        flood_net = build(6, Topology.MESH, seed=4)
        tree_net = build(6, Topology.MESH, seed=4)
        tree_net.install_spanning_tree_routing()
        for world in (flood_net, tree_net):
            src = world.brokers["b0"]
            src.publish_local(
                Event(uuid="e1", topic="t", payload=b"", source="x", issued_at=0.0)
            )
            world.sim.run_for(2.0)
            assert all(b.events_routed == 1 for b in world.broker_list())
        flood_tx = sum(b.events_forwarded for b in flood_net.broker_list())
        tree_tx = sum(b.events_forwarded for b in tree_net.broker_list())
        assert tree_tx == 5  # exactly n-1 transmissions
        assert flood_tx > tree_tx
