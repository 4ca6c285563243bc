"""The one world builder: ``close()`` leaves nothing running.

After :meth:`repro.discovery.world.World.close` the simulator has nothing
pending, and another 100 virtual seconds fire nothing.  Stopping the
nodes alone is not enough: a responder's heartbeat outlives its broker,
and the residue of stopped timers, datagrams in flight and link retries
stays queued until it fires.  The golden worlds are checked in
``tests/simnet/test_perf_determinism.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.harness import run_discovery_once, star_world
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from tests.discovery.conftest import World
from tests.event_parity import VARIANTS, ChaosRecorder


def assert_closed(world) -> None:
    world.close()
    sim = world.sim
    assert sim.pending == 0
    fired = sim.events_processed
    sim.run_for(100.0)
    assert sim.events_processed == fired
    assert not any(node.started for node in world.nodes())
    assert not any(r.active or r.heartbeat for r in world.responders.values())


@pytest.mark.parametrize("variant", [label for label, _ in VARIANTS])
def test_chaos_world_after_its_run(variant):
    with ChaosRecorder() as recorder:
        report = recorder.run(1, **dict(VARIANTS)[variant])
    assert report.ok, report.violations
    (world,) = recorder.worlds
    assert world.sim.pending > 0  # heartbeats and sweeps tick for ever
    assert_closed(world)


def test_star_world_on_the_simulator():
    sim = Simulator()
    world = star_world(Network(sim, rng=np.random.default_rng(6)), seed=5)
    sim.run_for(6.0)
    world.advertise()
    sim.run_for(0.5)
    assert run_discovery_once(world.client).success
    assert_closed(world)


@pytest.mark.parametrize(
    "spec", [ScenarioSpec.star(seed=1), ScenarioSpec.multicast_only(seed=1)], ids=["star", "multicast"]
)
def test_discovery_scenario(spec):
    scenario = DiscoveryScenario(spec)
    assert scenario.run_one().success
    assert_closed(scenario)


def test_stopping_the_nodes_alone_leaves_heartbeats_running():
    scenario = DiscoveryScenario(ScenarioSpec.star(seed=1))
    for node in scenario.nodes():
        node.stop()
    fired = scenario.sim.events_processed
    scenario.sim.run_for(100.0)
    assert scenario.sim.events_processed > fired  # the responders still beat
    assert_closed(scenario)


def test_close_restops_a_node_a_pending_fault_revives():
    from repro.discovery.faults import FaultInjector

    world = World()
    injector = FaultInjector(world.net.network)
    victim = world.brokers[0]
    injector.kill_broker(victim)
    injector.revive_broker(victim, at=world.sim.now + 1.0)
    assert_closed(world)
