"""Topic-based publish/subscribe broker substrate.

A from-scratch NaradaBrokering-style messaging layer: hierarchical
``/``-separated topics with wildcard subscriptions, brokers linked into
arbitrary topologies, duplicate-suppressed flooding plus spanning-tree
"optimized" routing, and pub/sub clients.  The discovery scheme of the
paper (package :mod:`repro.discovery`) rides on top of this substrate:
discovery requests propagate between brokers as events on a predefined
control topic, which is how the paper guarantees "that the request can
reach each broker connected in the network".
"""

from repro.substrate.topics import (
    TopicTrie,
    validate_topic,
    validate_pattern,
    topic_matches,
)
from repro.substrate.subscriptions import SubscriptionManager
from repro.substrate.routing import RoutingStrategy, FloodRouting, SpanningTreeRouting
from repro.substrate.broker import Broker, BROKER_TCP_PORT, BROKER_UDP_PORT
from repro.substrate.client import PubSubClient
from repro.substrate.builder import BrokerNetwork, Topology
from repro.substrate.content_routing import ContentRouting, install_content_routing
from repro.substrate.reliable import (
    EventArchive,
    ReliableDeliveryService,
    ReliablePublisher,
    ReliableSubscriber,
)

__all__ = [
    "TopicTrie",
    "validate_topic",
    "validate_pattern",
    "topic_matches",
    "SubscriptionManager",
    "RoutingStrategy",
    "FloodRouting",
    "SpanningTreeRouting",
    "Broker",
    "BROKER_TCP_PORT",
    "BROKER_UDP_PORT",
    "PubSubClient",
    "BrokerNetwork",
    "Topology",
    "ContentRouting",
    "install_content_routing",
    "EventArchive",
    "ReliableDeliveryService",
    "ReliablePublisher",
    "ReliableSubscriber",
]
