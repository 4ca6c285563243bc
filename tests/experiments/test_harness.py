"""Tests for the discovery-driving harness (including error paths)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ClientConfig
from repro.core.errors import DiscoveryError
from repro.discovery.requester import DiscoveryClient
from repro.experiments.harness import repeat_discovery, run_discovery_once
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from tests.discovery.conftest import World


@pytest.fixture
def small_world() -> World:
    """Local copy of the discovery fixture (conftest scoping)."""
    return World()


class TestRunDiscoveryOnce:
    def test_returns_outcome(self, small_world):
        outcome = run_discovery_once(small_world.client)
        assert outcome.success

    def test_queue_drained_raises(self):
        """A client with no BDNs, no multicast and no cache fails fast;
        with everything else idle the queue simply drains -- that must
        surface as a DiscoveryError, not an infinite loop."""
        sim = Simulator()
        net = Network(sim, rng=np.random.default_rng(0))
        net.register_host("lonely.host", "ls", multicast_enabled=False)
        client = DiscoveryClient(
            "lonely", "lonely.host", net, np.random.default_rng(1),
            config=ClientConfig(
                bdn_endpoints=(), use_multicast_fallback=False,
                max_responses=1, target_set_size=1,
            ),
        )
        client.start()
        sim.run_for(6.0)
        outcome = run_discovery_once(client)
        # Failing immediately IS a completed outcome.
        assert not outcome.success

    def test_virtual_time_cap_enforced(self, small_world):
        """An absurdly small cap trips the wedge guard."""
        with pytest.raises(DiscoveryError, match="within"):
            run_discovery_once(small_world.client, max_virtual_seconds=0.001)
        # Drain the in-flight discovery so the fixture world stays sane.
        small_world.sim.run_for(30.0)


class TestRepeatDiscovery:
    def test_gap_between_runs(self, small_world):
        outcomes = repeat_discovery(small_world.client, runs=3, gap=1.0)
        assert len(outcomes) == 3

    def test_validation(self, small_world):
        with pytest.raises(ValueError):
            repeat_discovery(small_world.client, runs=0)
        with pytest.raises(ValueError):
            repeat_discovery(small_world.client, runs=1, gap=-0.1)
