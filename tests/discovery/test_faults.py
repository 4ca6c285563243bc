"""Tests for fault injection and the section 7 tolerance claims."""

from __future__ import annotations

import re

import pytest

from repro.core.errors import TransportError, UnknownHostError
from repro.discovery.faults import FaultInjector
from repro.runtime.aio import AioRuntime
from repro.simnet.loss import UniformLoss
from tests.discovery.conftest import World


def in_force(net):
    """The loss model governing the whole fabric now: the most recent
    open fabric-wide storm, else the fabric's own model."""
    storm = net.hosts.storm_loss(None)
    return net.loss if storm is None else storm


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
        net = world.net.network
        injector = FaultInjector(net)
        original = net.loss
        storm = UniformLoss(0.9)
        start = world.sim.now + 1.0
        injector.loss_storm(storm, start=start, duration=2.0)
        world.sim.run_for(1.5)
        assert in_force(net) is storm
        assert net.loss is original  # a storm overlays, never overwrites
        world.sim.run_for(2.0)
        assert in_force(net) is original
        assert [k for _, k, _ in injector.injected] == ["loss_storm_start", "loss_storm_end"]
        assert injector.injected[-1][2] == type(original).__name__

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
        assert in_force(world.net.network) is storm
        world.sim.run_for(2.0)
        assert in_force(world.net.network) is newer

    def test_interleaved_loss_storms_unwind_to_original(self):
        """Two overlapping, non-nested storms (A starts, B starts, A
        ends, B ends) must end with the pre-storm model, not resurrect
        storm A when B ends."""
        world = World(n_brokers=1)
        net = world.net.network
        injector = FaultInjector(net)
        original = net.loss
        storm_a, storm_b = UniformLoss(0.9), UniformLoss(0.8)
        t0 = world.sim.now
        injector.loss_storm(storm_a, start=t0 + 1.0, duration=4.0)  # [1, 5]
        injector.loss_storm(storm_b, start=t0 + 3.0, duration=4.0)  # [3, 7]
        world.sim.run_for(2.0)
        assert in_force(net) is storm_a
        world.sim.run_for(2.0)  # t0+4: both active, B governs
        assert in_force(net) is storm_b
        world.sim.run_for(2.0)  # t0+6: A ended, B still active
        assert in_force(net) is storm_b
        world.sim.run_for(2.0)  # t0+8: all over
        assert in_force(net) is original
        # Each end names the model in force once that storm is over.
        ends = [target for _, kind, target in injector.injected if kind == "loss_storm_end"]
        assert ends == ["UniformLoss", type(original).__name__]

    def test_link_loss_storm_restores_prior_override(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        hosts = (world.brokers[0].host, world.brokers[1].host)
        link = net.hosts.link(*hosts)
        prior, storm = UniformLoss(0.05), UniformLoss(0.9)
        t0 = world.sim.now
        injector.link_loss_storm(*hosts, prior, start=t0 + 0.5, duration=5.0)  # [0.5, 5.5]
        injector.link_loss_storm(*reversed(hosts), storm, start=t0 + 1.0, duration=2.0)  # [1, 3]
        world.sim.run_for(2.0)
        assert net.hosts.storm_loss(link) is storm
        world.sim.run_for(2.0)
        assert net.hosts.storm_loss(link) is prior
        world.sim.run_for(2.0)
        assert net.hosts.storm_loss(link) is None
        # A link's storm governs there over a fabric-wide one, and only there.
        injector.loss_storm(UniformLoss(0.5), start=world.sim.now + 1.0, duration=3.0)
        injector.link_loss_storm(*hosts, storm, start=world.sim.now + 1.0, duration=2.0)
        world.sim.run_for(2.0)
        assert net._path(*hosts).loss_override is storm
        assert net._path(hosts[0], "client0.host").loss_override is net.hosts.storm_loss(None)

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

    def test_fail_link_checks_hosts_at_the_call(self):
        world = World(n_brokers=2)
        net = world.net.network
        injector = FaultInjector(net)
        b0, b1 = (b.host for b in world.brokers)
        with pytest.raises(UnknownHostError):
            injector.fail_link(b0, "ghost.host", at=world.sim.now + 1.0)
        injector.fail_link(b0, b1, at=world.sim.now + 1.0)
        injector.heal_link(b0, b1, at=world.sim.now + 2.0)
        world.sim.run_for(3.0)  # nothing fires for the refused cut
        assert net.reachable(b0, b1)
        assert [k for _, k, _ in injector.injected] == ["fail_link", "heal_link"]

    def test_partition_checks_hosts_at_the_call(self):
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        with pytest.raises(UnknownHostError):
            injector.partition([world.brokers[0].host], ["ghost.host"], at=world.sim.now + 1.0)
        world.sim.run_for(2.0)
        assert injector.injected == []

    def test_link_loss_storm_checks_hosts_at_the_call(self):
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        with pytest.raises(UnknownHostError):
            injector.link_loss_storm(
                world.brokers[0].host, "ghost.host", UniformLoss(0.5),
                start=world.sim.now + 1.0, duration=1.0,
            )
        world.sim.run_for(3.0)
        assert injector.injected == []

    def test_heal_of_no_open_partition_names_its_groups(self):
        world = World(n_brokers=2)
        injector = FaultInjector(world.net.network)
        b0 = world.brokers[0].host
        with pytest.raises(ValueError, match=re.escape(repr(((b0,),)))):
            injector.heal([b0])

    def test_loss_storm_on_aio_raises_at_the_call(self):
        """Injected loss is the simulated fabric's: on sockets the call
        itself refuses, before anything is armed."""
        rt = AioRuntime()
        rt.register_host("a.x", "sa")
        rt.register_host("b.x", "sb")
        injector = FaultInjector(rt)
        with pytest.raises(TransportError, match="simulated fabric"):
            injector.loss_storm(UniformLoss(0.5), start=rt.now + 1.0, duration=1.0)
        with pytest.raises(TransportError, match="simulated fabric"):
            injector.link_loss_storm("a.x", "b.x", UniformLoss(0.5), start=rt.now + 1.0, duration=1.0)

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
