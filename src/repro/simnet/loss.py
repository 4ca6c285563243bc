"""Packet loss models for connectionless (UDP/multicast) traffic.

The paper *designs around* UDP loss rather than fighting it (section
5.2): *"Since UDP packets can be lost, the response's arrival or the
lack thereof provides a good indicator of the underlying [network
quality]. If the responses were to traverse over multiple router hops
the chances that the packets would be lost would be higher."*

:class:`PerHopLoss` models precisely that: each router hop independently
drops the packet with probability ``p``, so the end-to-end delivery
probability is ``(1 - p) ** hops`` -- distant brokers' responses really
are likelier to vanish, which silently filters them out of the client's
candidate set.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

__all__ = ["LossModel", "NoLoss", "UniformLoss", "PerHopLoss"]


class LossModel(Protocol):
    """Interface consumed by the network fabric for datagram traffic."""

    def lost(self, hops: int, rng: np.random.Generator) -> bool:
        """Decide whether one datagram traversing ``hops`` hops is dropped."""
        ...


class NoLoss:
    """Never drops anything (TCP paths and unit tests)."""

    def lost(self, hops: int, rng: np.random.Generator) -> bool:
        return False


class UniformLoss:
    """Drop every datagram i.i.d. with a fixed probability."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"probability must be in [0, 1), got {probability}")
        self.probability = probability

    def lost(self, hops: int, rng: np.random.Generator) -> bool:
        return rng.random() < self.probability


class PerHopLoss:
    """Independent per-hop drop probability; loss compounds with distance.

    Parameters
    ----------
    per_hop:
        Probability one router hop drops the datagram.  With the default
        0.0035, a 2-hop LAN path delivers ~99.3% of datagrams while a
        30-hop transatlantic path delivers ~90% -- the gradient the
        paper's "lost response = far broker" heuristic needs.
    """

    def __init__(self, per_hop: float = 0.0035) -> None:
        if not 0.0 <= per_hop < 1.0:
            raise ValueError(f"per_hop must be in [0, 1), got {per_hop}")
        self.per_hop = per_hop
        # ``delivery_probability`` per hop count, computed on first use:
        # a fabric has a handful of distinct path lengths.
        self._delivery: dict[int, float] = {}

    def delivery_probability(self, hops: int) -> float:
        """End-to-end delivery probability across ``hops`` hops."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        return (1.0 - self.per_hop) ** hops

    def lost(self, hops: int, rng: np.random.Generator) -> bool:
        delivery = self._delivery.get(hops)
        if delivery is None:
            delivery = self._delivery[hops] = self.delivery_probability(hops)
        return rng.random() >= delivery
