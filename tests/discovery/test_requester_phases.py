"""Focused tests for requester timing mechanics: ping grace,
collection extension, and fallback opt-outs."""

from __future__ import annotations

import numpy as np

from repro.core.config import ClientConfig
from repro.discovery.requester import DiscoveryClient
from repro.experiments.harness import run_discovery_once
from repro.simnet.loss import UniformLoss
from tests.discovery.conftest import World


def make_client(world: World, name: str, **overrides) -> DiscoveryClient:
    defaults = dict(
        bdn_endpoints=(world.bdn.udp_endpoint,),
        response_timeout=1.5,
        max_responses=len(world.brokers),
        target_set_size=min(3, len(world.brokers)),
        retransmit_interval=0.5,
        max_retransmits=1,
    )
    defaults.update(overrides)
    client = DiscoveryClient(
        name, f"{name}.host", world.net.network,
        np.random.default_rng(abs(hash(name)) % 2**31),
        config=ClientConfig(**defaults), site=f"cs-{name}",
    )
    client.start()
    world.sim.run_for(6.0)
    return client


class TestPingGrace:
    def test_all_pongs_ends_phase_quickly(self):
        world = World(n_brokers=3)
        outcome = world.discover()
        # Lossless world: the ping phase ends when the pongs land, far
        # below the 1.5 s hard timeout.
        assert outcome.phases.duration("ping_target_set") < 0.3

    def test_lost_repeat_costs_only_grace(self):
        """One lost repeat must cost ~PING_GRACE, not ping_timeout."""
        world = World(n_brokers=2, seed=5)
        client = make_client(world, "gracey", ping_repeats=4, ping_timeout=5.0)
        # Make pings lossy enough that some repeats vanish, but every
        # broker answers at least once with overwhelming probability.
        world.net.network.loss = UniformLoss(0.25)
        durations = []
        for _ in range(6):
            outcome = run_discovery_once(client)
            if outcome.success and len(outcome.ping_rtts) == 2:
                durations.append(outcome.phases.duration("ping_target_set"))
            world.sim.run_for(0.5)
        world.net.network.loss = UniformLoss(0.0)
        assert durations, "no run got pongs from both brokers"
        # Even with lost repeats the phase never waits out 5 s.
        assert max(durations) < 1.0

    def test_silent_target_runs_into_hard_timeout(self):
        """A target that never answers keeps the phase open until
        ping_timeout -- its silence is the signal (paper section 5.2)."""
        world = World(n_brokers=2, seed=6)
        client = make_client(world, "hardcap", ping_timeout=0.6)
        # Kill one broker after it responds: collect first, then stop it
        # before pings go out by using a long response pause... simpler:
        # run once healthy to cache; then kill and discover again so the
        # dead broker is still in the BDN store (not yet pruned).
        first = run_discovery_once(client)
        assert first.success
        world.brokers[1].stop()
        world.sim.run_for(0.2)
        outcome = run_discovery_once(client)
        assert outcome.success
        # Only the live broker has an RTT; the dead one timed the phase.
        assert "b1" not in outcome.ping_rtts


class TestCollectionExtension:
    def test_thin_sample_triggers_retransmit_and_extension(self):
        """min_responses > collected at deadline -> one retransmission
        and an extended window (the 'collection_extended' path)."""
        world = World(n_brokers=3, injection="single")  # only 1 responds
        client = make_client(
            world, "thin",
            min_responses=2,
            response_timeout=0.8,
            max_retransmits=2,
        )
        outcome = run_discovery_once(client)
        assert outcome.success
        # The single broker answered each transmission; the extension
        # means at least 2 transmissions happened.
        assert outcome.transmissions >= 2
        # Still only one distinct broker could answer.
        assert len(outcome.candidates) == 1

    def test_extension_happens_once(self):
        world = World(n_brokers=3, injection="single")
        client = make_client(
            world, "once",
            min_responses=3,
            response_timeout=0.5,
            max_retransmits=5,
        )
        outcome = run_discovery_once(client)
        assert outcome.success
        # One initial + one extension retransmit; the second deadline
        # proceeds with what exists instead of extending forever.
        assert outcome.transmissions == 2


class TestFallbackOptOuts:
    def test_multicast_disabled_by_config(self):
        world = World(n_brokers=2, shared_realm="lab")
        world.bdn.stop()
        client = make_client(
            world, "nomc",
            use_multicast_fallback=False,
        )
        # Client shares no cached targets and refuses multicast: fail.
        outcome = run_discovery_once(client)
        assert not outcome.success

    def test_multicast_disabled_on_host(self):
        world = World(n_brokers=2, shared_realm="lab")
        world.bdn.stop()
        client = DiscoveryClient(
            "nohostmc", "nohostmc.host", world.net.network,
            np.random.default_rng(3),
            config=ClientConfig(
                bdn_endpoints=(world.bdn.udp_endpoint,),
                response_timeout=1.0,
                max_responses=2,
                target_set_size=2,
                retransmit_interval=0.4,
                max_retransmits=0,
            ),
            site="nomc-site",
            realm="lab",
            multicast_enabled=False,
        )
        client.start()
        world.sim.run_for(6.0)
        outcome = run_discovery_once(client)
        assert not outcome.success
