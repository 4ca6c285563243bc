"""The host registry, realm-scoped multicast, fabric faults and
datagram drops: one contract, both runtimes.

Both runtimes keep these tables in one :class:`repro.runtime.hosts.Hosts`,
so every case is written once here and must come out the same on the
simulated fabric and on real loopback sockets.  A runtime's test module
binds a contract to its side by subclassing::

    class TestMulticast(MulticastContract):
        Side = SimSide

(``tests/simnet/test_network.py`` and, for :class:`FaultContract`,
``tests/simnet/test_network_faults.py`` for the fabric;
``tests/runtime/test_aio_runtime.py`` for asyncio).  Each side counts
the runtime's plain events in ``side.obs``.  Hosts ``a.x``,
``b.x`` and ``c.x`` sit on sites ``sa``, ``sb`` and ``sc``; each site
is its own realm.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.core.errors import TransportError, UnknownHostError
from repro.core.messages import Ack
from repro.obs.recorder import Observability
from repro.runtime.aio import AioRuntime
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from tests.runtime.virtual_loop import VirtualLoop


class SimSide:
    def __init__(self) -> None:
        self.sim = Simulator()
        self.obs = Observability(clock=lambda: self.sim.now)
        self.rt = Network(
            self.sim,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.0),
            rng=np.random.default_rng(0),
            obs=self.obs,
        )

    def settle(self) -> None:
        self.sim.run()

    def close(self) -> None:
        pass


class AioSide:
    """Real loopback sockets on a :class:`VirtualLoop`: a settle is a jump."""

    def __init__(self) -> None:
        self.loop = VirtualLoop()
        asyncio.set_event_loop(self.loop)
        self.rt = AioRuntime()
        self.obs = Observability.for_runtime(self.rt)
        self.rt.attach_observability(self.obs)

    def settle(self) -> None:
        self.loop.run_until_complete(asyncio.sleep(0.15))

    def close(self) -> None:
        self.loop.run_until_complete(self.rt.aclose())
        self.loop.close()
        asyncio.set_event_loop(None)


class _Contract:
    Side: type  # SimSide or AioSide, set by the binding subclass

    @pytest.fixture
    def side(self):
        side = self.Side()
        for host, site in [("a.x", "sa"), ("b.x", "sb"), ("c.x", "sc")]:
            side.rt.register_host(host, site)
        yield side
        side.close()


def msg() -> Ack:
    return Ack(uuid="m", acked_by="tester")


def bind(rt, host: str, port: int = 9) -> list:
    inbox: list = []
    rt.bind_udp(Endpoint(host, port), lambda m, s: inbox.append(m))
    return inbox


def cut(rt, host_a: str, host_b: str) -> None:
    """Open one cut window on a link of ``rt``'s fault table."""
    rt.hosts.cut(rt.hosts.link(host_a, host_b))


def mend(rt, host_a: str, host_b: str) -> bool:
    """Close one cut window; whether the link is whole again."""
    return rt.hosts.mend(rt.hosts.link(host_a, host_b))


def split(rt, *groups) -> None:
    """Open a partition of ``rt``'s hosts into ``groups``."""
    rt.hosts.partition(rt.hosts.groups(groups))


class HostRegistryContract(_Contract):
    def test_site_and_realm_lookup(self, side):
        assert side.rt.site_of("a.x") == "sa"
        assert side.rt.realm_of("a.x") == "sa"  # realm defaults to site

    def test_explicit_realm(self, side):
        side.rt.register_host("lab1.x", "sa", realm="lab")
        assert side.rt.realm_of("lab1.x") == "lab"
        assert side.rt.site_of("lab1.x") == "sa"

    def test_duplicate_registration_rejected(self, side):
        with pytest.raises(TransportError):
            side.rt.register_host("a.x", "other")

    def test_unknown_host_rejected(self, side):
        for query in (side.rt.site_of, side.rt.realm_of, side.rt.multicast_enabled):
            with pytest.raises(UnknownHostError):
                query("ghost.x")

    def test_multicast_enabled_flag(self, side):
        side.rt.register_host("nomc.x", "sa", multicast_enabled=False)
        assert side.rt.multicast_enabled("a.x") is True
        assert side.rt.multicast_enabled("nomc.x") is False


class MulticastContract(_Contract):
    def test_same_realm_members_receive(self, side):
        side.rt.register_host("m1.x", "sa")  # same realm as a.x (realm = site)
        box_m1 = bind(side.rt, "m1.x")
        side.rt.join_multicast("grp", Endpoint("m1.x", 9))
        bind(side.rt, "a.x", port=1)
        assert side.rt.multicast(Endpoint("a.x", 1), "grp", msg()) == 1
        side.settle()
        assert len(box_m1) == 1

    def test_cross_realm_members_excluded(self, side):
        """Paper: 'multicast was disabled for network traffic outside the
        lab' -- members in other realms never see the datagram."""
        box_b = bind(side.rt, "b.x")  # realm sb != sa
        side.rt.join_multicast("grp", Endpoint("b.x", 9))
        bind(side.rt, "a.x", port=1)
        assert side.rt.multicast(Endpoint("a.x", 1), "grp", msg()) == 0
        side.settle()
        assert box_b == []

    def test_realm_scoped_fanout(self, side):
        """Realms set apart from sites: two sites share a lab realm."""
        for name, site, realm in (("la", "sa", "lab"), ("lb", "sb", "lab"), ("lc", "sc", "other")):
            side.rt.register_host(f"{name}.x", site, realm=realm)
        boxes = {}
        for name in ("la", "lb", "lc"):
            boxes[name] = bind(side.rt, f"{name}.x", port=10)
            side.rt.join_multicast("g", Endpoint(f"{name}.x", 10))
        assert side.rt.multicast(Endpoint("la.x", 10), "g", msg()) == 1  # lb only
        side.settle()
        assert len(boxes["lb"]) == 1
        assert boxes["la"] == [] and boxes["lc"] == []

    def test_sender_not_delivered_to_itself(self, side):
        box_a = bind(side.rt, "a.x", port=1)
        side.rt.join_multicast("grp", Endpoint("a.x", 1))
        assert side.rt.multicast(Endpoint("a.x", 1), "grp", msg()) == 0
        side.settle()
        assert box_a == []

    def test_join_requires_udp_binding(self, side):
        with pytest.raises(TransportError):
            side.rt.join_multicast("grp", Endpoint("a.x", 9))

    def test_multicast_disabled_host_cannot_join(self, side):
        side.rt.register_host("nomc.x", "sa", multicast_enabled=False)
        bind(side.rt, "nomc.x")
        with pytest.raises(TransportError):
            side.rt.join_multicast("grp", Endpoint("nomc.x", 9))

    def test_multicast_disabled_host_cannot_send(self, side):
        side.rt.register_host("nomc.x", "sa", multicast_enabled=False)
        with pytest.raises(TransportError):
            side.rt.multicast(Endpoint("nomc.x", 1), "grp", msg())

    def test_leave_multicast(self, side):
        side.rt.register_host("m1.x", "sa")
        box = bind(side.rt, "m1.x")
        side.rt.join_multicast("grp", Endpoint("m1.x", 9))
        side.rt.leave_multicast("grp", Endpoint("m1.x", 9))
        side.rt.leave_multicast("grp", Endpoint("m1.x", 9))  # idempotent
        bind(side.rt, "a.x", port=1)
        assert side.rt.multicast(Endpoint("a.x", 1), "grp", msg()) == 0
        side.settle()
        assert box == []

    def test_unbind_leaves_every_group(self, side):
        side.rt.register_host("m1.x", "sa")
        member = Endpoint("m1.x", 9)
        bind(side.rt, "m1.x")
        side.rt.join_multicast("grp", member)
        side.rt.join_multicast("other", member)
        side.rt.unbind_udp(member)
        assert side.rt.multicast_members("grp") == frozenset()
        assert side.rt.multicast_members("other") == frozenset()
        bind(side.rt, "a.x", port=1)
        sent = side.rt.datagrams_sent
        assert side.rt.multicast(Endpoint("a.x", 1), "grp", msg()) == 0
        assert side.rt.datagrams_sent == sent


class UdpContract(_Contract):
    def test_datagram_to_an_unbound_endpoint_is_a_drop(self, side):
        bind(side.rt, "a.x", port=1)
        side.rt.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 9), msg())
        side.settle()
        assert side.rt.datagrams_dropped == 1
        assert side.obs.count("udp_drop") == 1
        assert side.obs.count("udp_deliver") == 0


class FaultContract(_Contract):
    """Cuts and partitions, opened in the shared fault table.

    A datagram across either is dropped at the sender and emits
    ``udp_cut`` on both runtimes (TCP across a cut is the fabric's
    alone: ``tests/simnet/test_network_faults.py``).
    """

    def test_failed_link_drops_datagrams_both_directions(self, side):
        a, b = Endpoint("a.x", 1), Endpoint("b.x", 1)
        box_a, box_b = bind(side.rt, "a.x", 1), bind(side.rt, "b.x", 1)
        cut(side.rt, "a.x", "b.x")
        side.rt.send_udp(a, b, msg())
        side.rt.send_udp(b, a, msg())
        side.settle()
        assert box_a == [] and box_b == []
        assert side.obs.count("udp_cut") == 2

    def test_other_links_unaffected(self, side):
        box_c = bind(side.rt, "c.x", 1)
        cut(side.rt, "a.x", "b.x")
        side.rt.send_udp(Endpoint("a.x", 1), Endpoint("c.x", 1), msg())
        side.settle()
        assert len(box_c) == 1
        assert side.obs.count("udp_cut") == 0

    def test_heal_link_restores_delivery(self, side):
        box_b = bind(side.rt, "b.x", 1)
        cut(side.rt, "a.x", "b.x")
        assert mend(side.rt, "a.x", "b.x")
        side.rt.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 1), msg())
        side.settle()
        assert len(box_b) == 1
        assert side.rt.reachable("a.x", "b.x")

    def test_link_key_is_order_insensitive(self, side):
        cut(side.rt, "b.x", "a.x")
        assert not side.rt.reachable("a.x", "b.x")
        mend(side.rt, "a.x", "b.x")
        assert side.rt.reachable("a.x", "b.x")

    def test_unknown_host_rejected(self, side):
        with pytest.raises(UnknownHostError):
            cut(side.rt, "a.x", "ghost.x")
        with pytest.raises(UnknownHostError):
            split(side.rt, ["a.x"], ["ghost.x"])
        assert not side.rt.hosts.split

    def test_overlapping_cuts_keep_the_link_cut(self, side):
        cut(side.rt, "a.x", "b.x")
        cut(side.rt, "b.x", "a.x")
        assert not mend(side.rt, "a.x", "b.x")
        assert not side.rt.reachable("a.x", "b.x")
        assert mend(side.rt, "a.x", "b.x")
        assert side.rt.reachable("a.x", "b.x")

    def test_cross_group_traffic_dropped(self, side):
        box_b, box_c = bind(side.rt, "b.x", 1), bind(side.rt, "c.x", 1)
        split(side.rt, ["a.x", "b.x"], ["c.x"])
        side.rt.send_udp(Endpoint("a.x", 1), Endpoint("c.x", 1), msg())
        side.rt.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 1), msg())
        side.settle()
        assert (len(box_b), box_c) == (1, [])
        assert not side.rt.reachable("a.x", "c.x")
        assert side.obs.count("udp_cut") == 1

    def test_partitions_intersect(self, side):
        """Two hosts talk only if every open partition puts them on one
        side; healing one partition leaves the other in force."""
        first = side.rt.hosts.groups([["a.x"], ["b.x", "c.x"]])
        side.rt.hosts.partition(first)
        split(side.rt, ["a.x", "b.x"], ["c.x"])
        assert not side.rt.reachable("a.x", "b.x")
        assert not side.rt.reachable("b.x", "c.x")
        side.rt.hosts.heal(first)
        assert side.rt.reachable("a.x", "b.x")
        assert not side.rt.reachable("b.x", "c.x")

    def test_same_host_always_reachable(self, side):
        split(side.rt, ["a.x"], ["b.x"])
        cut(side.rt, "a.x", "a.x")
        assert side.rt.reachable("a.x", "a.x")

    def test_multicast_skips_members_across_a_cut(self, side):
        for name in ("m1.x", "m2.x"):
            side.rt.register_host(name, "sa")  # a.x's realm
        boxes = {}
        for name in ("m1.x", "m2.x"):
            boxes[name] = bind(side.rt, name)
            side.rt.join_multicast("grp", Endpoint(name, 9))
        bind(side.rt, "a.x", port=1)
        cut(side.rt, "a.x", "m1.x")
        side.rt.multicast(Endpoint("a.x", 1), "grp", msg())
        side.settle()
        assert (boxes["m1.x"], len(boxes["m2.x"])) == ([], 1)
        assert side.obs.count("udp_cut") == 1
