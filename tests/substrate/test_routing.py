"""Tests for routing strategies."""

from __future__ import annotations

import pytest

from repro.substrate.routing import FloodRouting, SpanningTreeRouting


class TestFloodRouting:
    def test_local_publish_targets_all_peers(self):
        routing = FloodRouting()
        peers = frozenset({"a", "b", "c"})
        assert routing.targets("me", peers, None) == peers

    def test_excludes_sender(self):
        routing = FloodRouting()
        peers = frozenset({"a", "b", "c"})
        assert routing.targets("me", peers, "b") == {"a", "c"}

    def test_unknown_sender_is_harmless(self):
        routing = FloodRouting()
        peers = frozenset({"a"})
        assert routing.targets("me", peers, "ghost") == {"a"}

    def test_no_peers(self):
        routing = FloodRouting()
        assert routing.targets("me", frozenset(), None) == frozenset()


def tree(*edges: tuple[str, str]) -> SpanningTreeRouting:
    routing = SpanningTreeRouting()
    for a, b in edges:
        routing.add_edge(a, b)
    return routing


class TestSpanningTreeRouting:
    def _line(self) -> SpanningTreeRouting:
        # a - b - c - d
        return tree(("a", "b"), ("b", "c"), ("c", "d"))

    def test_forwards_only_on_tree_edges(self):
        routing = self._line()
        # b has physical links to a, c and d (extra chord b-d), but the
        # tree only allows a and c.
        peers = frozenset({"a", "c", "d"})
        assert routing.targets("b", peers, None) == {"a", "c"}

    def test_excludes_sender(self):
        routing = self._line()
        peers = frozenset({"a", "c"})
        assert routing.targets("b", peers, "a") == {"c"}

    def test_leaf_forwards_nowhere_back(self):
        routing = self._line()
        assert routing.targets("a", frozenset({"b"}), "b") == frozenset()

    def test_isolated_broker(self):
        routing = self._line()
        assert routing.targets("zz", frozenset({"a"}), None) == frozenset()

    def test_tree_neighbors(self):
        routing = self._line()
        assert routing.tree_neighbors("b") == {"a", "c"}
        assert routing.tree_neighbors("zz") == frozenset()

    def test_only_live_peers_targeted(self):
        routing = self._line()
        # Tree says a and c, but only c currently has a live link.
        assert routing.targets("b", frozenset({"c"}), None) == {"c"}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            tree(("a", "a"))

    def test_incremental_add_edge(self):
        routing = SpanningTreeRouting()
        routing.add_edge("x", "y")
        assert routing.tree_neighbors("x") == {"y"}
        assert routing.tree_neighbors("y") == {"x"}

    def test_version_bumps_on_mutation(self):
        routing = SpanningTreeRouting()
        assert routing.version == 0
        routing.add_edge("x", "y")
        routing.add_edge("y", "z")
        assert routing.version == 2


class TestBrokerRouteCache:
    def _mesh(self):
        from repro.substrate.builder import BrokerNetwork, Topology

        net = BrokerNetwork(seed=11)
        for name in ("ba", "bb", "bc"):
            net.add_broker(name, site="s1")
        net.apply_topology(Topology.MESH)
        net.settle()
        return net

    def test_cached_targets_match_uncached(self):
        broker = self._mesh().brokers["ba"]
        miss = broker._forward_targets("bb")  # fills the per-arrival-link entry
        assert broker._forward_targets("bb") == miss == ("bc",)

    def test_cache_invalidated_on_link_down(self):
        net = self._mesh()
        ba = net.brokers["ba"]
        assert ba._forward_targets(None) == ("bb", "bc")
        net.brokers["bc"].stop()
        net.settle(2.0)
        assert "bc" not in ba.peers
        assert ba._forward_targets(None) == ("bb",)

    def test_cache_invalidated_on_strategy_mutation(self):
        net = self._mesh()
        ba = net.brokers["ba"]
        strategy = tree(("ba", "bb"))
        ba.routing = strategy
        assert ba._forward_targets(None) == ("bb",)
        strategy.add_edge("ba", "bc")  # in-place mutation, version bump
        assert ba._forward_targets(None) == ("bb", "bc")

    def test_cache_invalidated_on_routing_reassignment(self):
        net = self._mesh()
        ba = net.brokers["ba"]
        assert ba._forward_targets(None) == ("bb", "bc")
        ba.routing = tree(("ba", "bb"))
        assert ba._forward_targets(None) == ("bb",)
