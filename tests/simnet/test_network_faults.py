"""Faults on the fabric: the fault contract, TCP across cuts, injected loss.

The datagram cases are :class:`~tests.runtime.hosts_contract.FaultContract`,
bound here to the simulated fabric (and to sockets in
``tests/runtime/test_aio_runtime.py``); what only the fabric has --
datagrams in flight, TCP-like connections, injected loss -- is tested
here alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.core.errors import TransportError
from repro.core.messages import Ack
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss, UniformLoss
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from tests.runtime.hosts_contract import FaultContract, SimSide, cut, split


def make_net(loss=None, seed=0) -> tuple[Simulator, Network]:
    sim = Simulator()
    net = Network(
        sim,
        latency=UniformLatencyModel(base=0.010, jitter_fraction=0.0),
        loss=loss,
        rng=np.random.default_rng(seed),
    )
    for host, site in [("a.x", "sa"), ("b.x", "sb"), ("c.x", "sc"), ("d.x", "sd")]:
        net.register_host(host, site)
    return sim, net


def msg(tag="m") -> Ack:
    return Ack(uuid=tag, acked_by="tester")


class TestLinkFaults(FaultContract):
    """The fault contract on the fabric (cuts and partitions alike)."""

    Side = SimSide

    def test_in_flight_datagram_dropped_by_late_cut(self, side):
        sim, net = side.sim, side.rt
        got = []
        net.bind_udp(Endpoint("b.x", 1), lambda m, s: got.append(m))
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 1), msg())
        sim.schedule(0.001, cut, net, "a.x", "b.x")  # before ~10ms delivery
        sim.run()
        assert got == []
        assert side.obs.count("udp_cut") == 1


class TestPartitions:
    def test_unlisted_hosts_form_implicit_group(self):
        sim, net = make_net()
        split(net, ["a.x"])
        # b, c, d are unassigned: they share a group with each other but
        # are cut off from a.
        assert net.reachable("b.x", "c.x")
        assert not net.reachable("a.x", "b.x")

    def test_duplicate_host_rejected(self):
        sim, net = make_net()
        with pytest.raises(TransportError):
            split(net, ["a.x", "b.x"], ["b.x"])

    def test_heal_partition_restores_everything(self):
        sim, net = make_net()
        groups = net.hosts.groups([["a.x"], ["b.x"]])
        net.hosts.partition(groups)
        net.hosts.heal(groups)
        assert net.reachable("a.x", "b.x")
        assert not net.hosts.split

    def test_heal_partition_keeps_link_cuts(self):
        sim, net = make_net()
        cut(net, "a.x", "b.x")
        groups = net.hosts.groups([["a.x"], ["b.x"]])
        net.hosts.partition(groups)
        net.hosts.heal(groups)
        assert not net.reachable("a.x", "b.x")


class TestTcpAcrossCuts:
    def _connect(self, sim, net):
        conns = {}
        net.listen_tcp(Endpoint("b.x", 5), lambda c: conns.setdefault("remote", c))
        net.connect_tcp(Endpoint("a.x", 5), Endpoint("b.x", 5), lambda c: conns.setdefault("local", c))
        sim.run()
        return conns

    def test_established_connection_severed_by_partition(self):
        sim, net = make_net()
        conns = self._connect(sim, net)
        closed = []
        conns["local"].on_close = lambda: closed.append("local")
        conns["remote"].on_close = lambda: closed.append("remote")
        split(net, ["a.x"], ["b.x"])
        assert net.connections_severed == 1
        assert sorted(closed) == ["local", "remote"]
        assert not conns["local"].open

    def test_syn_across_cut_vanishes_silently(self):
        sim, net = make_net()
        connected = []
        net.listen_tcp(Endpoint("b.x", 5), lambda c: connected.append("accept"))
        cut(net, "a.x", "b.x")
        # No exception -- the SYN just disappears.
        net.connect_tcp(Endpoint("a.x", 5), Endpoint("b.x", 5), lambda c: connected.append("local"))
        sim.run()
        assert connected == []

    def test_cut_during_handshake_prevents_establishment(self):
        sim, net = make_net()
        connected = []
        net.listen_tcp(Endpoint("b.x", 5), lambda c: connected.append("accept"))
        net.connect_tcp(Endpoint("a.x", 5), Endpoint("b.x", 5), lambda c: connected.append("local"))
        cut(net, "a.x", "b.x")  # before the handshake completes
        sim.run()
        assert connected == []

    def test_in_flight_segment_dropped_by_cut(self):
        sim, net = make_net()
        conns = self._connect(sim, net)
        got = []
        conns["remote"].on_receive = lambda m, s: got.append(m)
        conns["local"].send(msg())
        cut(net, "a.x", "b.x")
        sim.run()
        assert got == []

    def test_no_listener_still_raises(self):
        sim, net = make_net()
        with pytest.raises(TransportError):
            net.connect_tcp(Endpoint("a.x", 5), Endpoint("b.x", 99), lambda c: None)


class TestPerLinkLoss:
    def test_override_replaces_global_model_for_pair(self):
        sim, net = make_net(loss=NoLoss())
        net.hosts.storm(net.hosts.link("a.x", "b.x"), "s", UniformLoss(0.999999999))
        delivered = []
        net.bind_udp(Endpoint("b.x", 1), lambda m, s: delivered.append(m))
        net.bind_udp(Endpoint("c.x", 1), lambda m, s: delivered.append(m))
        for i in range(50):
            net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 1), msg(f"b{i}"))
        net.send_udp(Endpoint("a.x", 1), Endpoint("c.x", 1), msg("c"))
        sim.run()
        assert [m.uuid for m in delivered] == ["c"]

    def test_clear_link_loss_restores_global(self):
        sim, net = make_net(loss=NoLoss())
        link = net.hosts.link("a.x", "b.x")
        net.hosts.storm(link, "s", UniformLoss(0.999999999))
        net.hosts.calm(link, "s")
        assert net.hosts.storm_loss(link) is None
        got = []
        net.bind_udp(Endpoint("b.x", 1), lambda m, s: got.append(m))
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 1), msg())
        sim.run()
        assert len(got) == 1
