"""Tests for fault injection and the section 7 tolerance claims."""

from __future__ import annotations

import pytest

from repro.discovery.faults import FaultInjector
from repro.simnet.loss import UniformLoss
from tests.discovery.conftest import World


class TestFaultInjector:
    def test_kill_bdn_immediately(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        injector.kill_bdn(world.bdn)
        assert not world.bdn.alive
        assert injector.injected[0][1] == "kill_bdn"

    def test_kill_bdn_scheduled(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        at = world.sim.now + 5.0
        injector.kill_bdn(world.bdn, at=at)
        assert world.bdn.alive
        world.sim.run_for(5.5)
        assert not world.bdn.alive

    def test_revive_bdn_restores_service(self):
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        injector.kill_bdn(world.bdn)
        injector.revive_bdn(world.bdn)
        world.sim.run_for(6.0)
        outcome = world.discover()
        assert outcome.success
        assert outcome.via == "bdn"

    def test_kill_broker(self):
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        injector.kill_broker(world.brokers[0])
        assert not world.brokers[0].alive

    def test_loss_storm_restores_previous(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        original = world.net.network.loss
        storm = UniformLoss(0.9)
        start = world.sim.now + 1.0
        injector.loss_storm(storm, start=start, duration=2.0)
        world.sim.run_for(1.5)
        assert world.net.network.loss is storm
        world.sim.run_for(2.0)
        assert world.net.network.loss is original

    def test_loss_storm_duration_validated(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        with pytest.raises(ValueError):
            injector.loss_storm(UniformLoss(0.5), start=0.0, duration=0.0)

    def test_loss_storm_restores_model_current_at_onset(self):
        """Regression: the restore target is the model installed when
        the storm *starts*, not whatever was live when the storm was
        scheduled."""
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        storm = UniformLoss(0.9)
        start = world.sim.now + 5.0
        injector.loss_storm(storm, start=start, duration=2.0)
        # The model changes after scheduling but before the window opens.
        newer = UniformLoss(0.1)

        def swap() -> None:
            world.net.network.loss = newer

        world.sim.schedule_at(world.sim.now + 1.0, swap)
        world.sim.run_for(6.0)
        assert world.net.network.loss is storm
        world.sim.run_for(2.0)
        assert world.net.network.loss is newer

    def test_interleaved_loss_storms_unwind_to_original(self):
        """Two overlapping, non-nested storms (A starts, B starts, A
        ends, B ends) must end with the pre-storm model, not resurrect
        storm A when B ends."""
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        original = world.net.network.loss
        storm_a, storm_b = UniformLoss(0.9), UniformLoss(0.8)
        t0 = world.sim.now
        injector.loss_storm(storm_a, start=t0 + 1.0, duration=4.0)  # [1, 5]
        injector.loss_storm(storm_b, start=t0 + 3.0, duration=4.0)  # [3, 7]
        world.sim.run_for(2.0)
        assert world.net.network.loss is storm_a
        world.sim.run_for(2.0)  # t0+4: both active, B governs
        assert world.net.network.loss is storm_b
        world.sim.run_for(2.0)  # t0+6: A ended, B still active
        assert world.net.network.loss is storm_b
        world.sim.run_for(2.0)  # t0+8: all over
        assert world.net.network.loss is original

    def test_link_loss_storm_restores_prior_override(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        hosts = (world.brokers[0].host, world.brokers[1].host)
        prior = UniformLoss(0.05)
        net.set_link_loss(*hosts, prior)
        storm = UniformLoss(0.9)
        t0 = world.sim.now
        injector.link_loss_storm(*hosts, storm, start=t0 + 1.0, duration=2.0)
        world.sim.run_for(2.0)
        assert net.link_loss(*hosts) is storm
        world.sim.run_for(2.0)
        assert net.link_loss(*hosts) is prior
        # With no prior override, the storm's end clears the link.
        other = (world.brokers[0].host, "client0.host")
        injector.link_loss_storm(*other, storm, start=world.sim.now + 1.0, duration=1.0)
        world.sim.run_for(3.0)
        assert net.link_loss(*other) is None

    def test_revive_broker_restores_service(self):
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        broker = world.brokers[0]
        injector.kill_broker(broker)
        assert not broker.alive
        injector.revive_broker(broker, at=world.sim.now + 2.0)
        world.sim.run_for(3.0)
        assert broker.alive
        assert [k for _, k, _ in injector.injected] == ["kill_broker", "revive_broker"]
        outcome = world.discover()
        assert outcome.success

    def test_revive_is_idempotent_under_overlapping_windows(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        broker = world.brokers[0]
        injector.kill_broker(broker)
        injector.revive_broker(broker)
        injector.revive_broker(broker)  # second revive must be a no-op
        assert broker.alive
        kinds = [k for _, k, _ in injector.injected]
        assert kinds.count("revive_broker") == 1

    def test_overlapping_kills_keep_the_node_down(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        broker = world.brokers[0]
        t0 = world.sim.now
        injector.kill_broker(broker, at=t0 + 1.0)
        injector.revive_broker(broker, at=t0 + 5.0)  # [1, 5]
        injector.kill_broker(broker, at=t0 + 3.0)
        injector.revive_broker(broker, at=t0 + 8.0)  # [3, 8]
        world.sim.run_for(6.0)
        assert not broker.alive
        world.sim.run_for(3.0)
        assert broker.alive
        # Every onset is logged; the node came back once.
        kinds = [k for _, k, _ in injector.injected]
        assert kinds == ["kill_broker", "kill_broker", "revive_broker"]

    def test_last_revive_is_cold_if_any_overlapping_window_was(self):
        world = World(n_brokers=1)
        injector = FaultInjector(world.net.network)
        t0 = world.sim.now
        injector.kill_bdn(world.bdn, at=t0 + 1.0)
        injector.revive_bdn(world.bdn, at=t0 + 5.0, cold=True)  # [1, 5] cold
        injector.kill_bdn(world.bdn, at=t0 + 3.0)
        injector.revive_bdn(world.bdn, at=t0 + 8.0)  # [3, 8] warm
        world.sim.run_for(6.0)
        assert not world.bdn.alive
        world.sim.run_for(3.0)
        assert world.bdn.alive
        assert injector.injected[-1][1] == "revive_bdn_cold"

    def test_overlapping_cuts_keep_the_link_cut(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        hosts = (world.brokers[0].host, world.brokers[1].host)
        t0 = world.sim.now
        injector.fail_link(*hosts, at=t0 + 1.0)
        injector.heal_link(*hosts, at=t0 + 5.0)
        injector.fail_link(*reversed(hosts), at=t0 + 3.0)
        injector.heal_link(*reversed(hosts), at=t0 + 8.0)
        world.sim.run_for(6.0)
        assert not net.reachable(*hosts)
        world.sim.run_for(3.0)
        assert net.reachable(*hosts)

    def test_heal_names_the_partition_it_dissolves(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        b0, b1 = (b.host for b in world.brokers)
        injector.partition([b0])
        injector.partition([b1])
        # Both open: each broker is cut off from the other and the client.
        assert not net.reachable(b0, b1)
        assert not net.reachable(b1, "client0.host")
        injector.heal([b0])
        assert net.reachable(b0, "client0.host")
        assert not net.reachable(b1, "client0.host")
        with pytest.raises(ValueError):
            injector.heal([b0])  # not open any more
        injector.heal([b1])
        assert net.reachable(b0, b1)

    def test_fail_and_heal_link_via_injector(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        hosts = (world.brokers[0].host, world.brokers[1].host)
        t0 = world.sim.now
        injector.fail_link(*hosts, at=t0 + 1.0)
        injector.heal_link(*hosts, at=t0 + 3.0)
        world.sim.run_for(2.0)
        assert not net.reachable(*hosts)
        world.sim.run_for(2.0)
        assert net.reachable(*hosts)
        assert [k for _, k, _ in injector.injected] == ["fail_link", "heal_link"]

    def test_partition_and_heal_via_injector(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        island = world.brokers[0].host
        injector.partition([island])
        assert not net.reachable(island, world.brokers[1].host)
        # The client (implicit group) is cut off from the island too.
        assert not net.reachable(island, "client0.host")
        injector.heal([island])
        assert net.reachable(island, world.brokers[1].host)
        assert net.reachable(island, "client0.host")
        assert [k for _, k, _ in injector.injected] == ["partition", "heal"]

    def test_partitioned_client_falls_back_then_recovers(self):
        """A client partitioned away from BDN and brokers fails its
        discovery outright; after the heal it succeeds again."""
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        injector.partition(["client0.host"])
        from repro.experiments.harness import run_discovery_once

        outcome = run_discovery_once(world.client)
        assert not outcome.success
        injector.heal(["client0.host"])
        world.sim.run_for(1.0)
        recovered = world.discover()
        assert recovered.success


class TestSectionSevenClaims:
    def test_only_one_functioning_bdn_needed(self):
        """'The approach we have described needs only 1 functioning BDN
        to work.'  Kill every BDN but one; discovery still succeeds."""
        import numpy as np

        from repro.core.config import BDNConfig, ClientConfig
        from repro.discovery.advertisement import advertise_direct
        from repro.discovery.bdn import BDN
        from repro.discovery.requester import DiscoveryClient
        from repro.experiments.harness import run_discovery_once

        world = World(n_brokers=2)
        bdn2 = BDN(
            "bdn1", "bdn1.host", world.net.network, np.random.default_rng(77),
            config=BDNConfig(injection="all"), site="bdn2-site",
        )
        bdn2.start()
        for broker in world.brokers:
            advertise_direct(broker, bdn2.udp_endpoint)
        world.sim.run_for(6.0)
        world.bdn.stop()  # first BDN goes down
        cfg = ClientConfig(
            bdn_endpoints=(world.bdn.udp_endpoint, bdn2.udp_endpoint),
            max_responses=2,
            target_set_size=2,
            response_timeout=2.0,
            retransmit_interval=0.5,
            max_retransmits=1,
        )
        client = DiscoveryClient(
            "c-two-bdns", "c2b.host", world.net.network, np.random.default_rng(8),
            config=cfg, site="cs-x",
        )
        client.start()
        world.sim.run_for(6.0)
        outcome = run_discovery_once(client)
        assert outcome.success
        assert outcome.bdn_used == bdn2.udp_endpoint

    def test_discovery_during_loss_storm_eventually_succeeds(self):
        world = World(n_brokers=3, seed=13)
        world.net.network.loss = UniformLoss(0.3)
        successes = sum(world.discover().success for _ in range(5))
        assert successes >= 4

    def test_zero_bdns_with_multicast(self):
        """'The approach could work even if none of the BDNs within the
        system are functioning' via multicast."""
        world = World(n_brokers=2, shared_realm="lab")
        FaultInjector(world.net.network).kill_bdn(world.bdn)
        outcome = world.discover()
        assert outcome.success
        assert outcome.via == "multicast"
