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

__all__ = ["LossModel", "NoLoss", "UniformLoss", "PerHopLoss", "CompositeLoss"]


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
        return bool(rng.random() < self.probability)


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

    def delivery_probability(self, hops: int) -> float:
        """End-to-end delivery probability across ``hops`` hops."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        return float((1.0 - self.per_hop) ** hops)

    def lost(self, hops: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() >= self.delivery_probability(hops))


class CompositeLoss:
    """Layers several loss models: a datagram is lost if *any* layer drops it.

    Used to stack a per-link degradation (a congested or flapping path)
    on top of the fabric's global model without replacing it:
    ``injector.link_loss_storm(a, b, CompositeLoss((network.loss, storm)), start, duration)``.

    Every layer is always consulted (no short-circuit), so the RNG draw
    sequence -- and therefore the simulation -- stays deterministic
    regardless of which layer drops first.
    """

    def __init__(self, models: tuple[LossModel, ...]) -> None:
        if not models:
            raise ValueError("CompositeLoss needs at least one model")
        self.models = tuple(models)

    def lost(self, hops: int, rng: np.random.Generator) -> bool:
        dropped = False
        for model in self.models:
            if model.lost(hops, rng):
                dropped = True
        return dropped
