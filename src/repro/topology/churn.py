"""Broker churn: joins and leaves at arbitrary times.

Section 1.2 motivates the whole discovery problem with churn: *"a very
dynamic and fluid system where broker processes may join and leave the
broker network at arbitrary times and intervals.  It is thus not
possible for any entity to assume that a given broker may be available
indefinitely."*

:class:`ChurnProcess` drives that behaviour against a
:class:`~repro.substrate.builder.BrokerNetwork`: at exponentially
distributed intervals it stops a random live broker or revives a
stopped one, keeping the population between configurable bounds.
Discovery experiments run with churn active to show the scheme keeps
finding live brokers.
"""

from __future__ import annotations

import numpy as np

from repro.substrate.broker import Broker
from repro.substrate.builder import BrokerNetwork

__all__ = ["ChurnProcess"]

#: Probability a churn event revives a stopped broker (if any) rather
#: than stopping a live one.
RESTART_PROBABILITY = 0.5


class ChurnProcess:
    """Randomly stops and restarts brokers in a network.

    Parameters
    ----------
    network:
        The broker network to churn.
    rng:
        Randomness for event times and victim choice.
    mean_interval:
        Mean seconds between churn events (exponential).
    min_alive:
        Never stop a broker if it would leave fewer than this many
        alive.

    Notes
    -----
    Restarting a broker re-runs :meth:`Broker.start` and re-links it to
    the peers it had before stopping, modelling a broker process that
    comes back with the same configuration file.
    """

    def __init__(
        self,
        network: BrokerNetwork,
        rng: np.random.Generator,
        mean_interval: float = 10.0,
        min_alive: int = 1,
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if min_alive < 0:
            raise ValueError("min_alive must be >= 0")
        self.network = network
        self.rng = rng
        self.mean_interval = mean_interval
        self.min_alive = min_alive
        self._prior_peers: dict[str, frozenset[str]] = {}
        self._running = False
        self.stops = 0
        self.restarts = 0

    def start(self) -> None:
        """Begin scheduling churn events."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop scheduling further churn events."""
        self._running = False

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.mean_interval))
        self.network.sim.schedule(max(delay, 1e-3), self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        stopped = [b for b in self.network.brokers.values() if not b.alive]
        alive = [b for b in self.network.brokers.values() if b.alive]
        revive = stopped and (
            len(alive) <= self.min_alive or self.rng.random() < RESTART_PROBABILITY
        )
        if revive:
            victim = stopped[int(self.rng.integers(len(stopped)))]
            self._restart(victim)
        elif len(alive) > self.min_alive:
            victim = alive[int(self.rng.integers(len(alive)))]
            self._halt(victim)
        self._schedule_next()

    def _halt(self, broker: Broker) -> None:
        self._prior_peers[broker.name] = broker.peers
        broker.stop()
        self.stops += 1

    def _restart(self, broker: Broker) -> None:
        broker.start()  # then re-establish the links it had when halted
        for peer_name in self._prior_peers.pop(broker.name, frozenset()):
            peer = self.network.brokers.get(peer_name)
            if peer is not None and peer.alive:
                broker.link_to(peer)
        self.restarts += 1
