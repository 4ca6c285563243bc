"""The reference world, and driving discoveries through the simulator.

:func:`star_world` builds the one world every sim/live mirror runs --
``examples/live_discovery.py`` on asyncio sockets, its sim prediction,
the ``trace`` CLI's aio side, the sim-vs-aio conformance suite -- on
whatever runtime it is handed, through the one world builder
(:class:`repro.discovery.world.World`, docs/PROTOCOL.md "Worlds").

The discovery client is callback-based; experiments want a synchronous
"run one discovery, give me the outcome" interface.  The drive helpers
spin the simulator until the outcome callback fires (with a hard
virtual-time cap so a wedged protocol run fails loudly, not hangs).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.config import BDNConfig, ClientConfig
from repro.core.errors import DiscoveryError
from repro.discovery.requester import DiscoveryClient, DiscoveryOutcome
from repro.discovery.world import World
from repro.simnet.simulator import Simulator

__all__ = ["star_world", "drive_discovery", "run_discovery_once", "repeat_discovery"]

# A discovery can legitimately take several timeout windows (BDN
# retries, multicast fallback, cached targets); 120 virtual seconds is
# far beyond any legitimate run with default configs.
_DEFAULT_CAP = 120.0


def star_world(runtime, seed: int, obs=None) -> World:
    """Build and start the reference world on ``runtime``.

    One BDN with ``injection="all"``, three brokers with responders, one
    client, one realm.  ``runtime`` is a :class:`~repro.runtime.api.Runtime`
    or a simulated ``Network``; each node's generator is drawn from
    ``seed`` in construction order, so both runtimes hand every node the
    same randomness.  Settling the clocks (virtual seconds of NTP in the
    simulator, ``ntp.sync_now()`` on sockets) and :meth:`World.advertise`
    are the caller's.
    """
    world = World(runtime, seed, obs)
    bdn = world.add_bdn(
        "bdn0",
        "bdn0.local",
        config=BDNConfig(injection="all", ping_interval=0.5),
        site="site0",
        realm="lab",
    )
    for i in range(3):
        world.add_broker(f"b{i}", f"b{i}.local", site=f"site{i}", realm="lab")
    world.add_client(
        "client0",
        "client0.local",
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            response_timeout=1.0,
            retransmit_interval=1.0,
            ping_timeout=1.0,
        ),
        site="site9",
        realm="lab",
    )
    world.start()
    return world


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
    deadline = sim.now + max_virtual_seconds
    outcome = drive_discovery(sim, client.discover, max_virtual_seconds)
    if outcome is not None:
        return outcome
    if sim.now <= deadline:
        raise DiscoveryError("simulation queue drained before the discovery completed")
    raise DiscoveryError(
        f"discovery did not complete within {max_virtual_seconds}s of virtual time"
    )


def drive_discovery(
    sim: Simulator, begin: Callable[[Callable[[DiscoveryOutcome], None]], object], cap: float
) -> DiscoveryOutcome | None:
    """Start a discovery with ``begin(callback)`` and step ``sim`` to its outcome.

    The one step-until-outcome loop: :func:`run_discovery_once` and the
    chaos harness both drive their runs through it.  Returns None if the
    event queue drains, or ``cap`` virtual seconds pass, first.
    """
    outcomes: list[DiscoveryOutcome] = []
    begin(outcomes.append)
    deadline = sim.now + cap
    while not outcomes:
        if not sim.step() or sim.now > deadline:
            return None
    return outcomes[0]


def repeat_discovery(
    client: DiscoveryClient,
    runs: int,
    gap: float = 0.5,
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
        outcomes.append(run_discovery_once(client))
        client.runtime.sim.run_for(gap)
    return outcomes
