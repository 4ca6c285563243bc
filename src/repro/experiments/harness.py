"""Driving discoveries through the simulator.

The discovery client is callback-based; experiments want a synchronous
"run one discovery, give me the outcome" interface.  These helpers spin
the simulator until the outcome callback fires (with a hard virtual-time
cap so a wedged protocol run fails loudly instead of hanging).
"""

from __future__ import annotations

from repro.core.errors import DiscoveryError
from repro.discovery.requester import DiscoveryClient, DiscoveryOutcome
from repro.simnet.simulator import Simulator

__all__ = ["run_discovery_once", "repeat_discovery"]

# A discovery can legitimately take several timeout windows (BDN
# retries, multicast fallback, cached targets); 120 virtual seconds is
# far beyond any legitimate run with default configs.
_DEFAULT_CAP = 120.0


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
