"""Tests for the network fabric: UDP, TCP, multicast.

The host registry and multicast cases are the contract both runtimes
share (``tests/runtime/hosts_contract.py``), bound here to the fabric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.core.errors import TransportError
from repro.core.messages import Ack
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import UniformLoss
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from tests.runtime.hosts_contract import (
    HostRegistryContract,
    MulticastContract,
    SimSide,
    TeardownContract,
    UdpContract,
)


def make_net(loss=None, latency=None, seed=0) -> tuple[Simulator, Network]:
    sim = Simulator()
    net = Network(
        sim,
        latency=latency or UniformLatencyModel(base=0.010, jitter_fraction=0.0),
        loss=loss,
        rng=np.random.default_rng(seed),
    )
    for host, site in [("a.x", "sa"), ("b.x", "sb"), ("c.x", "sc")]:
        net.register_host(host, site)
    return sim, net


def msg(tag="m") -> Ack:
    return Ack(uuid=tag, acked_by="tester")


class TestHostRegistry(HostRegistryContract):
    Side = SimSide


class TestTeardown(TeardownContract):
    Side = SimSide


class TestUDP(UdpContract):
    Side = SimSide

    def test_delivery_after_latency(self):
        sim, net = make_net()
        got = []
        net.bind_udp(Endpoint("b.x", 9), lambda m, src: got.append((m, src, sim.now)))
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 9), msg())
        sim.run()
        assert len(got) == 1
        _, src, t = got[0]
        assert src == Endpoint("a.x", 1)
        assert t == pytest.approx(0.010, rel=0.05)

    def test_unbound_destination_drops_silently(self):
        sim, net = make_net()
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 999), msg())
        sim.run()
        assert net.datagrams_dropped == 1
        assert net.datagrams_delivered == 0

    def test_double_bind_rejected(self):
        sim, net = make_net()
        net.bind_udp(Endpoint("a.x", 9), lambda m, s: None)
        with pytest.raises(TransportError):
            net.bind_udp(Endpoint("a.x", 9), lambda m, s: None)

    def test_unbind_then_rebind(self):
        sim, net = make_net()
        net.bind_udp(Endpoint("a.x", 9), lambda m, s: None)
        net.unbind_udp(Endpoint("a.x", 9))
        net.bind_udp(Endpoint("a.x", 9), lambda m, s: None)

    def test_bind_requires_known_host(self):
        sim, net = make_net()
        with pytest.raises(TransportError):
            net.bind_udp(Endpoint("ghost.x", 9), lambda m, s: None)

    def test_loss_model_applies(self):
        sim, net = make_net(loss=UniformLoss(0.999))
        got = []
        net.bind_udp(Endpoint("b.x", 9), lambda m, s: got.append(m))
        for i in range(50):
            net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 9), msg(str(i)))
        sim.run()
        assert len(got) < 5
        assert net.datagrams_dropped >= 45

    def test_counters(self):
        sim, net = make_net()
        net.bind_udp(Endpoint("b.x", 9), lambda m, s: None)
        net.send_udp(Endpoint("a.x", 1), Endpoint("b.x", 9), msg())
        sim.run()
        assert net.datagrams_sent == 1
        assert net.datagrams_delivered == 1
        assert net.bytes_sent > 0


class TestMulticast(MulticastContract):
    Side = SimSide


class TestTCP:
    def _establish(self, sim, net, src=("a.x", 1), dst=("b.x", 2)):
        accepted, connected = [], []
        net.listen_tcp(Endpoint(*dst), accepted.append)
        net.connect_tcp(Endpoint(*src), Endpoint(*dst), connected.append)
        sim.run()
        assert len(accepted) == 1 and len(connected) == 1
        return connected[0], accepted[0]

    def test_handshake_costs_time(self):
        sim, net = make_net()
        net.listen_tcp(Endpoint("b.x", 2), lambda c: None)
        done = []
        net.connect_tcp(Endpoint("a.x", 1), Endpoint("b.x", 2), lambda c: done.append(sim.now))
        sim.run()
        assert done[0] >= 0.020  # one RTT minimum

    def test_connect_without_listener_raises(self):
        sim, net = make_net()
        with pytest.raises(TransportError):
            net.connect_tcp(Endpoint("a.x", 1), Endpoint("b.x", 2), lambda c: None)

    def test_bidirectional_reliable_delivery(self):
        sim, net = make_net()
        local, remote = self._establish(sim, net)
        got_remote, got_local = [], []
        remote.on_receive = lambda m, s: got_remote.append(m)
        local.on_receive = lambda m, s: got_local.append(m)
        local.send(msg("from-local"))
        remote.send(msg("from-remote"))
        sim.run()
        assert [m.uuid for m in got_remote] == ["from-local"]
        assert [m.uuid for m in got_local] == ["from-remote"]

    def test_fifo_ordering_preserved(self):
        sim, net = make_net(
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.5)
        )
        local, remote = self._establish(sim, net)
        got = []
        remote.on_receive = lambda m, s: got.append(m.uuid)
        for i in range(50):
            local.send(msg(f"m{i:03d}"))
        sim.run()
        assert got == [f"m{i:03d}" for i in range(50)]

    def test_send_on_closed_connection_raises(self):
        sim, net = make_net()
        local, remote = self._establish(sim, net)
        local.close()
        with pytest.raises(TransportError):
            local.send(msg())

    def test_close_propagates_to_peer(self):
        sim, net = make_net()
        local, remote = self._establish(sim, net)
        closed = []
        remote.on_close = lambda: closed.append(True)
        local.close()
        assert closed == [True]
        assert not remote.open

    def test_messages_in_flight_dropped_after_close(self):
        sim, net = make_net()
        local, remote = self._establish(sim, net)
        got = []
        remote.on_receive = lambda m, s: got.append(m)
        local.send(msg())
        local.close()  # closes both sides before delivery
        sim.run()
        assert got == []

    def test_double_listen_rejected(self):
        sim, net = make_net()
        net.listen_tcp(Endpoint("b.x", 2), lambda c: None)
        with pytest.raises(TransportError):
            net.listen_tcp(Endpoint("b.x", 2), lambda c: None)

    def test_listener_removed_mid_handshake(self):
        sim, net = make_net()
        net.listen_tcp(Endpoint("b.x", 2), lambda c: None)
        done = []
        net.connect_tcp(Endpoint("a.x", 1), Endpoint("b.x", 2), done.append)
        net.stop_listening(Endpoint("b.x", 2))
        sim.run()
        assert done == []  # handshake aborted

    def test_connection_counters(self):
        sim, net = make_net()
        local, _ = self._establish(sim, net)
        local.send(msg())
        sim.run()
        assert net.connections_opened == 1
        assert local.messages_sent == 1
        assert local.bytes_sent > 0
