"""Subscription-aware ("content") routing on a spanning tree.

Flooding delivers every event to every broker; NaradaBrokering instead
routes "the right content from the producer to the right consumers"
(paper section 1).  :class:`ContentRouting` reproduces that behaviour:

* events travel only along spanning-tree links behind which someone is
  actually interested;
* interest is propagated broker-to-broker as link-level
  :class:`~repro.core.messages.Subscribe` / ``Unsubscribe`` control
  messages carrying ``(origin broker, pattern)`` pairs -- on a tree the
  propagation converges with one message per link per change;
* a configurable *always-flood* list keeps control-plane topics
  (discovery requests, service topics) reaching every broker, since
  those have no subscribers in the pub/sub sense.

Install with :func:`install_content_routing`, which builds the spanning
tree from a :class:`~repro.substrate.builder.BrokerNetwork`'s link graph,
registers the strategy on every broker, and seeds it with any
subscriptions that already exist.

Limitations (documented, tested): interest state is rebuilt only at
install time; brokers joining after installation need a re-install (the
related dynamic-topology protocol is out of this paper's scope).
"""

from __future__ import annotations

from repro.core.messages import Message, Subscribe, Unsubscribe
from repro.substrate.broker import Broker
from repro.substrate.routing import SpanningTreeRouting
from repro.substrate.topics import topic_matches

__all__ = ["ContentRouting", "install_content_routing", "DEFAULT_FLOOD_PATTERNS"]

#: Control-plane topics that must reach every broker regardless of
#: subscriptions (discovery propagation, substrate services).
DEFAULT_FLOOD_PATTERNS: tuple[str, ...] = ("Services/**",)


class ContentRouting:
    """Shared routing state for one broker network.

    One instance is installed on every broker of the network (like
    :class:`SpanningTreeRouting`, which it builds on).  Topics matching
    ``flood_patterns`` (:data:`DEFAULT_FLOOD_PATTERNS`) are forwarded on
    every tree link unconditionally.
    """

    def __init__(self) -> None:
        self.tree = SpanningTreeRouting()
        self.flood_patterns = DEFAULT_FLOOD_PATTERNS
        # interests[broker][link peer] = {(origin broker, pattern), ...}
        self._interests: dict[str, dict[str, set[tuple[str, str]]]] = {}
        self.interest_messages = 0

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def add_edge(self, a: str, b: str) -> None:
        """Add one spanning-tree edge."""
        self.tree.add_edge(a, b)

    def link_interests(self, broker_id: str, peer: str) -> frozenset[tuple[str, str]]:
        """(origin, pattern) pairs known to live behind ``peer``."""
        return frozenset(self._interests.get(broker_id, {}).get(peer, ()))

    # ------------------------------------------------------------------
    # Forwarding decision (Broker hook)
    # ------------------------------------------------------------------
    def targets_for_topic(
        self, broker_id: str, peers: frozenset[str], from_peer: str | None, topic: str
    ) -> frozenset[str]:
        """Tree links worth forwarding an event on ``topic`` to."""
        allowed = self.tree.tree_neighbors(broker_id) & peers
        if from_peer is not None:
            allowed = allowed - {from_peer}
        if any(topic_matches(p, topic) for p in self.flood_patterns):
            return allowed
        by_link = self._interests.get(broker_id, {})
        return frozenset(
            link
            for link in allowed
            if any(topic_matches(pattern, topic) for _, pattern in by_link.get(link, ()))
        )

    def targets(
        self, broker_id: str, peers: frozenset[str], from_peer: str | None
    ) -> frozenset[str]:
        """Topic-less fallback: behave like plain spanning-tree routing."""
        return self.tree.targets(broker_id, peers, from_peer)

    # ------------------------------------------------------------------
    # Interest propagation (Broker hooks)
    # ------------------------------------------------------------------
    def on_local_interest(self, broker: Broker, pattern: str, added: bool) -> None:
        """A broker gained/lost its first/last local subscriber of ``pattern``."""
        self._announce(broker, origin=broker.name, pattern=pattern, added=added, skip=None)

    def on_link_interest(self, broker: Broker, from_peer: str, message: Message) -> None:
        """Digest an interest message that arrived over a tree link."""
        if isinstance(message, Subscribe):
            added = True
        elif isinstance(message, Unsubscribe):
            added = False
        else:  # pragma: no cover - link protocol guards this
            return
        entry = (message.subscriber, message.topic)  # (origin broker, pattern)
        by_link = self._interests.setdefault(broker.name, {})
        interests = by_link.setdefault(from_peer, set())
        if added:
            if entry in interests:
                return  # already known; do not re-propagate
            interests.add(entry)
        else:
            if entry not in interests:
                return
            interests.discard(entry)
        self._announce(
            broker, origin=message.subscriber, pattern=message.topic, added=added, skip=from_peer
        )

    def _announce(
        self, broker: Broker, origin: str, pattern: str, added: bool, skip: str | None
    ) -> None:
        cls = Subscribe if added else Unsubscribe
        for peer in sorted(self.tree.tree_neighbors(broker.name) & broker.peers):
            if peer == skip:
                continue
            message = cls(uuid=broker.ids(), topic=pattern, subscriber=origin)
            if broker.send_to_peer(peer, message):
                self.interest_messages += 1


def install_content_routing(network) -> ContentRouting:  # network: a BrokerNetwork
    """Switch a broker network to content routing.

    Builds a BFS spanning tree per connected component, installs one
    shared :class:`ContentRouting` on every broker, and announces every
    pre-existing local subscription so the interest tables start
    consistent.
    """
    import networkx as nx

    graph = network.graph()
    strategy = ContentRouting()
    for component in nx.connected_components(graph):
        nodes = sorted(component)
        for a, b in nx.bfs_edges(graph.subgraph(component), nodes[0]):
            strategy.add_edge(a, b)
    for broker in network.broker_list():
        broker.routing = strategy
    for broker in network.broker_list():
        # Seed client subscriptions AND broker-level service interests
        # (e.g. a reliable-delivery archive) that predate installation.
        for pattern in sorted(broker.interest_patterns()):
            strategy.on_local_interest(broker, pattern, added=True)
    return strategy
