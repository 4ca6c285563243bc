"""Self-healing broker links: persistent neighbours and link repair."""

from __future__ import annotations

from repro.discovery.faults import FaultInjector
from repro.substrate.broker import LINK_RETRY_INTERVAL, Broker
from repro.substrate.builder import BrokerNetwork, Topology

# Long enough for the next retry probe after a fault, plus the handshake.
REPAIR = LINK_RETRY_INTERVAL + 1.0


def persistent_pair(seed=0) -> tuple[BrokerNetwork, Broker, Broker]:
    net = BrokerNetwork(seed=seed)
    a = net.add_broker("a", site="sa")
    b = net.add_broker("b", site="sb")
    net.link("a", "b", persistent=True)
    net.settle()
    return net, a, b


class TestPersistentLinks:
    def test_link_repairs_after_peer_restart(self):
        net, a, b = persistent_pair()
        injector = FaultInjector(net.network)
        injector.kill_broker(b)
        net.sim.run_for(0.5)
        assert a.peers == frozenset()
        assert a.links_lost == 1
        injector.revive_broker(b)
        net.sim.run_for(REPAIR)
        assert a.peers == {"b"}
        assert b.peers == {"a"}

    def test_link_repairs_after_partition_heals(self):
        net, a, b = persistent_pair()
        injector = FaultInjector(net.network)
        injector.partition([a.host], [b.host])
        net.sim.run_for(0.5)
        assert a.peers == frozenset()
        injector.heal()
        net.sim.run_for(REPAIR)
        assert a.peers == {"b"}
        assert b.peers == {"a"}

    def test_repair_survives_retries_into_a_wall(self):
        """Cut lasting several retry intervals: every attempt fails
        silently until the heal, then the next attempt connects."""
        net, a, b = persistent_pair()
        injector = FaultInjector(net.network)
        injector.fail_link(a.host, b.host)
        net.sim.run_for(3 * LINK_RETRY_INTERVAL)  # several failed retries
        assert a.peers == frozenset()
        injector.heal_link(a.host, b.host)
        net.sim.run_for(REPAIR)
        assert a.peers == {"b"}

    def test_no_duplicate_links_after_repair(self):
        net, a, b = persistent_pair()
        injector = FaultInjector(net.network)
        injector.partition([a.host], [b.host])
        net.sim.run_for(0.5)
        injector.heal()
        net.sim.run_for(2 * REPAIR)
        assert a.link_count == 1
        assert b.link_count == 1

    def test_non_persistent_link_stays_down(self):
        net = BrokerNetwork()
        a = net.add_broker("a", site="sa")
        b = net.add_broker("b", site="sb")
        net.link("a", "b")  # default: not persistent
        net.settle()
        injector = FaultInjector(net.network)
        injector.kill_broker(b)
        net.sim.run_for(0.5)
        injector.revive_broker(b)
        net.sim.run_for(2 * REPAIR)
        assert a.peers == frozenset()

    def test_stop_does_not_trigger_repair(self):
        net, a, b = persistent_pair()
        a.stop()
        net.sim.run_for(2 * REPAIR)
        assert a.peers == frozenset()
        assert b.peers == frozenset()
        assert a.links_lost == 0  # own shutdown is not a lost link

    def test_persistent_ring_reheals_end_to_end(self):
        """A ring broker is killed and revived; the ring closes again
        and events flood every broker."""
        net = BrokerNetwork(seed=3)
        for i in range(4):
            net.add_broker(f"b{i}", site=f"s{i}")
        net.apply_topology(Topology.RING, persistent=True)
        net.settle()
        injector = FaultInjector(net.network)
        victim = net.brokers["b1"]
        injector.kill_broker(victim)
        net.sim.run_for(2.0)
        injector.revive_broker(victim)
        net.sim.run_for(REPAIR)
        assert victim.peers == {"b0", "b2"}
        from tests.substrate.test_broker import make_event

        source = net.brokers["b0"]
        routed = {name: broker.events_routed for name, broker in net.brokers.items()}
        source.publish_local(make_event(source))
        net.sim.run_for(2.0)
        for name, broker in net.brokers.items():
            assert broker.events_routed == routed[name] + 1, name
