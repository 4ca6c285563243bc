"""Event routing strategies for the broker network.

Brokers forward events to neighbour brokers over their links.  Two
strategies:

* :class:`FloodRouting` -- forward to every link except the one the
  event arrived on, relying on the per-broker UUID dedup cache to stop
  echo storms.  Robust against any topology, including ones with
  cycles; used as the default.
* :class:`SpanningTreeRouting` -- forward only along the edges of a
  precomputed spanning tree of the broker graph, so each event crosses
  each broker exactly once with no redundant transmissions.  This is
  the "optimized routing" the paper credits for the star topology's
  improved dissemination; the tree is computed by the network builder
  and installed on every broker.

Both strategies answer one question: *given an event that arrived from
``from_peer`` (None if locally published), which peers do I forward it
to?*  Delivery to local subscribers is the broker's job, not the
router's.
"""

from __future__ import annotations

from typing import Protocol

__all__ = ["RoutingStrategy", "FloodRouting", "SpanningTreeRouting"]


class RoutingStrategy(Protocol):
    """Decides forwarding targets for one broker."""

    def targets(self, broker_id: str, peers: frozenset[str], from_peer: str | None) -> frozenset[str]:
        """Peers (subset of ``peers``) the event should be forwarded to."""
        ...


class FloodRouting:
    """Forward to every neighbour except the sender.

    Correct on every connected topology; the dedup cache bounds the
    total work to one processing per broker per event, but cyclic
    topologies still pay for redundant transmissions on the wire.
    """

    def targets(
        self, broker_id: str, peers: frozenset[str], from_peer: str | None
    ) -> frozenset[str]:
        if from_peer is None:
            return peers
        return peers - {from_peer}


class SpanningTreeRouting:
    """Forward only along spanning-tree edges.

    Builders add the undirected tree edges (per connected component,
    e.g. a BFS tree) with :meth:`add_edge` and hand the same instance to
    every broker.
    """

    def __init__(self) -> None:
        self._neighbors: dict[str, set[str]] = {}
        #: Bumped on every mutation; brokers memoise target sets keyed on
        #: this, so in-place edits (builders growing the tree after the
        #: strategy is installed) invalidate their caches automatically.
        self.version = 0

    def add_edge(self, a: str, b: str) -> None:
        """Add one undirected tree edge."""
        if a == b:
            raise ValueError(f"self-loop {a!r} is not a tree edge")
        self._neighbors.setdefault(a, set()).add(b)
        self._neighbors.setdefault(b, set()).add(a)
        self.version += 1

    def tree_neighbors(self, broker_id: str) -> frozenset[str]:
        """This broker's neighbours in the tree."""
        return frozenset(self._neighbors.get(broker_id, ()))

    def targets(
        self, broker_id: str, peers: frozenset[str], from_peer: str | None
    ) -> frozenset[str]:
        allowed = self.tree_neighbors(broker_id) & peers
        if from_peer is None:
            return allowed
        return allowed - {from_peer}
