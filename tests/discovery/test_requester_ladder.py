"""The section 7 fallback ladder, walked exhaustively at small scope.

Every combination of

* configured BDNs: 0, 1 or 2, each alive or stopped (7 shapes);
* multicast: ``usable`` (an in-realm broker listens), ``off``
  (``use_multicast_fallback=False``: no transmission) or ``deaf`` (the
  flag is on but no broker joined the group: one transmission that
  reaches nobody);
* the cached target set: present (a prior successful run) or empty;
* the retry policy: the paper's fixed timer or ``ChaosWorld.RETRY_POLICY``

is driven twice on one client and held to the ladder's arithmetic:
the outcome comes from the first rung that can answer, a run fails only
when none can, the fixed timer spends exactly the walk's transmissions
and silences (the adaptive policy at most as many transmissions; a rung
that cannot carry the request costs no time), the phases are a prefix
of ``PHASE_NAMES`` that sums to the total, and no client timer outlives
the run.

7 x 3 x 2 x 2 = 84 cases, each a fresh world run twice; under 1 s of wall
time in all.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import BDNConfig, ClientConfig
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.chaos import ChaosWorld
from repro.discovery.phases import PHASE_NAMES
from repro.discovery.requester import DiscoveryClient
from repro.experiments.harness import run_discovery_once
from tests.discovery.conftest import World

MAX_RETRANSMITS = 1
RETRANSMIT_INTERVAL = 0.5
#: Idle virtual seconds between two runs on one client.
DRAIN = 1.0

BDN_SHAPES = [alive for n in (0, 1, 2) for alive in itertools.product((True, False), repeat=n)]
CASES = list(
    itertools.product(BDN_SHAPES, ("usable", "off", "deaf"), (True, False), (False, True))
)


def case_id(case) -> str:
    bdns, multicast, cached, adaptive = case
    shape = "".join("A" if alive else "x" for alive in bdns) or "none"
    return f"bdns={shape}-mc={multicast}-{'cached' if cached else 'nocache'}-" + (
        "adaptive" if adaptive else "fixed"
    )


def expected_walk(bdns, multicast, cached):
    """``(success, via, transmissions, silences)`` of the fixed-timer walk.

    ``via`` is the last rung transmitted on (a run that never transmits
    reports the initial ``"bdn"``); ``silences`` counts the
    ``retransmit_interval`` waits that ran out before the answering
    transmission, or before the failure -- only a stopped BDN costs
    any, a multicast that reaches nobody is passed over at once.
    """
    via, sent = "bdn", 0
    for alive in bdns:
        if alive:
            return True, "bdn", sent + 1, sent
        sent += 1 + MAX_RETRANSMITS
    silences = sent
    if multicast != "off":
        via, sent = "multicast", sent + 1
        if multicast == "usable":
            return True, via, sent, silences
    if cached:
        return True, "cached", sent + 1, silences
    return False, via, sent, silences


def idle_pending(sim) -> int:
    """``sim.pending`` at an instant with no datagram in flight.

    An idle world holds one pending event per periodic series; a BDN
    sweep's ping burst adds a few for ~20 ms, so the smaller of two
    samples 0.1 s apart is the steady count.
    """
    first = sim.pending
    sim.run_for(0.1)
    return min(first, sim.pending)


def build(bdns, multicast, cached, adaptive):
    """The world of one case and a fresh client configured for it."""
    world = World(
        n_brokers=2,
        shared_realm="lab",
        broker_multicast=multicast != "deaf",
    )
    members = [world.bdn]
    if len(bdns) == 2:
        second = BDN(
            "bdn1", "bdn1.host", world.net.network, np.random.default_rng(11),
            config=BDNConfig(injection="all"), site="bdn1-site", realm="lab",
        )
        second.start()
        for broker in world.brokers:
            advertise_direct(broker, second.udp_endpoint)
        world.net.settle(2.0)
        members.append(second)
    config = ClientConfig(
        bdn_endpoints=tuple(bdn.udp_endpoint for bdn in members[: len(bdns)]),
        max_responses=2,
        target_set_size=2,
        response_timeout=1.0,
        retransmit_interval=RETRANSMIT_INTERVAL,
        max_retransmits=MAX_RETRANSMITS,
        ping_timeout=0.5,
        use_multicast_fallback=multicast != "off",
        retry_policy=ChaosWorld.RETRY_POLICY if adaptive else None,
    )
    client = DiscoveryClient(
        "c-ladder", "c-ladder.host", world.net.network, np.random.default_rng(5),
        config=config, site="cs-ladder", realm="lab",
    )
    client.start()
    world.sim.run_for(6.0)  # NTP's initial sync lands inside this, as in World
    if cached:
        # The prior successful run, made while every BDN still answers.
        client.config = replace(config, bdn_endpoints=(world.bdn.udp_endpoint,))
        assert run_discovery_once(client).success
        client.config = config
        world.sim.run_for(DRAIN)
    stopped = [bdn for bdn, alive in zip(members, bdns) if not alive]
    for bdn in stopped:
        bdn.stop()
    if stopped:
        # A cancelled periodic series keeps its dead tick pending until
        # the tick's time comes; let every stopped sweep's pass.
        world.sim.run_for(BDNConfig().ping_interval)
    return world, client


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_ladder_walk(case):
    bdns, multicast, cached, adaptive = case
    world, client = build(*case)
    success, via, transmissions, silences = expected_walk(bdns, multicast, cached)
    assert bool(client.last_target_set) == cached
    for _ in range(2):  # the second run on the same client ends the same way
        pending = idle_pending(world.sim)
        outcome = run_discovery_once(client)  # raises unless the run terminates
        assert (outcome.success, outcome.via) == (success, via)
        if adaptive:
            assert outcome.transmissions <= transmissions
        else:
            assert outcome.transmissions == transmissions
            waited = outcome.total_time - silences * RETRANSMIT_INTERVAL
            if success:  # the answering rung needs one collection and one ping phase
                assert 0.0 < waited < RETRANSMIT_INTERVAL
            else:
                assert waited == pytest.approx(0.0, abs=1e-6)
        durations = outcome.phases.durations()
        assert tuple(durations) == PHASE_NAMES[: len(durations)]
        # A run that found nobody never leaves the two awaiting states.
        assert len(durations) == len(PHASE_NAMES) if success else len(durations) <= 2
        assert all(d >= 0.0 for d in durations.values())
        assert sum(durations.values()) == pytest.approx(outcome.total_time, abs=1e-6)
        assert client._run is None
        assert idle_pending(world.sim) == pending, "a client timer outlived its run"
        # A run that succeeded leaves a cache behind; whichever rung
        # answered first still answers first on the second pass.
        assert bool(client.last_target_set) == (cached or success)
        world.sim.run_for(DRAIN)


def test_case_count():
    assert len(BDN_SHAPES) == 7
    assert len(CASES) == 7 * 3 * 2 * 2 == 84
