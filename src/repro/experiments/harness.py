"""The reference world, and driving discoveries through the simulator.

:func:`star_world` builds the one world every sim/live mirror runs --
``examples/live_discovery.py`` on asyncio sockets, its sim prediction,
the ``trace`` CLI's aio side, the sim-vs-aio conformance suite -- on
whatever runtime it is handed.

The discovery client is callback-based; experiments want a synchronous
"run one discovery, give me the outcome" interface.  The drive helpers
spin the simulator until the outcome callback fires (with a hard
virtual-time cap so a wedged protocol run fails loudly, not hangs).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.config import BDNConfig, ClientConfig
from repro.core.errors import DiscoveryError
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient, DiscoveryOutcome
from repro.discovery.responder import DiscoveryResponder
from repro.simnet.simulator import Simulator
from repro.substrate.broker import Broker

__all__ = ["StarWorld", "star_world", "run_discovery_once", "repeat_discovery"]

# A discovery can legitimately take several timeout windows (BDN
# retries, multicast fallback, cached targets); 120 virtual seconds is
# far beyond any legitimate run with default configs.
_DEFAULT_CAP = 120.0


class StarWorld(NamedTuple):
    bdn: BDN
    brokers: list[Broker]
    responders: list[DiscoveryResponder]  # held so the brokers keep answering
    client: DiscoveryClient

    def nodes(self) -> tuple:
        return (self.bdn, self.client, *self.brokers)

    def advertise(self) -> None:
        """Register every broker with the BDN (once clocks have settled)."""
        for broker in self.brokers:
            advertise_direct(broker, self.bdn.udp_endpoint)


def star_world(runtime, seed: int, obs=None) -> StarWorld:
    """Build and start the reference world on ``runtime``.

    One BDN with ``injection="all"``, three brokers with responders, one
    client, one realm.  ``runtime`` is a :class:`~repro.runtime.api.Runtime`
    or a simulated ``Network``; each node's generator is drawn from
    ``seed`` in construction order, so both runtimes hand every node the
    same randomness.  Settling the clocks (virtual seconds of NTP in the
    simulator, ``ntp.sync_now()`` on sockets) is the caller's.
    """
    root = np.random.default_rng(seed)

    def rng() -> np.random.Generator:
        return np.random.default_rng(root.integers(0, 2**63))

    bdn = BDN(
        "bdn0",
        "bdn0.local",
        runtime,
        rng(),
        config=BDNConfig(injection="all", ping_interval=0.5),
        site="site0",
        realm="lab",
        obs=obs,
    )
    brokers = [
        Broker(f"b{i}", f"b{i}.local", runtime, rng(), site=f"site{i}", realm="lab", obs=obs)
        for i in range(3)
    ]
    responders = [DiscoveryResponder(broker) for broker in brokers]
    client = DiscoveryClient(
        "client0",
        "client0.local",
        runtime,
        rng(),
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            response_timeout=1.0,
            retransmit_interval=1.0,
            ping_timeout=1.0,
        ),
        site="site9",
        realm="lab",
        obs=obs,
    )
    for node in (bdn, *brokers, client):
        node.start()
    return StarWorld(bdn, brokers, responders, client)


def run_discovery_once(
    client: DiscoveryClient, max_virtual_seconds: float = _DEFAULT_CAP
) -> DiscoveryOutcome:
    """Start one discovery on ``client`` and drive the sim to completion.

    Raises
    ------
    DiscoveryError
        If the outcome callback has not fired within
        ``max_virtual_seconds`` of virtual time (protocol wedged).
    """
    sim: Simulator = client.runtime.sim
    outcomes: list[DiscoveryOutcome] = []
    client.discover(outcomes.append)
    deadline = sim.now + max_virtual_seconds
    while not outcomes:
        if not sim.step():
            raise DiscoveryError(
                "simulation queue drained before the discovery completed"
            )
        if sim.now > deadline:
            raise DiscoveryError(
                f"discovery did not complete within {max_virtual_seconds}s of virtual time"
            )
    return outcomes[0]


def repeat_discovery(
    client: DiscoveryClient,
    runs: int,
    gap: float = 0.5,
    max_virtual_seconds: float = _DEFAULT_CAP,
) -> list[DiscoveryOutcome]:
    """Run ``runs`` sequential discoveries with ``gap`` idle seconds between.

    This is the paper's "carried out 120 times" loop; the idle gap lets
    in-flight stragglers (late responses, pongs) drain so runs do not
    contaminate each other.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if gap < 0:
        raise ValueError("gap must be >= 0")
    outcomes: list[DiscoveryOutcome] = []
    for _ in range(runs):
        outcomes.append(run_discovery_once(client, max_virtual_seconds))
        client.runtime.sim.run_for(gap)
    return outcomes
