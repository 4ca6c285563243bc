"""Tests for the simulated-process base class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import Endpoint
from repro.obs import Observability
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.simulator import Simulator


def make_world():
    sim = Simulator()
    net = Network(sim, rng=np.random.default_rng(0))
    return sim, net


class TestNodeConstruction:
    def test_registers_new_host(self):
        sim, net = make_world()
        node = Node("n1", "n1.example", net, np.random.default_rng(1), site="s1")
        assert net.site_of("n1.example") == "s1"
        assert node.site == "s1"

    def test_reuses_existing_host(self):
        sim, net = make_world()
        net.register_host("shared.example", "s1", realm="lab")
        node = Node("n1", "shared.example", net, np.random.default_rng(1))
        assert node.realm == "lab"

    def test_unregistered_host_without_site_fails(self):
        sim, net = make_world()
        with pytest.raises(ValueError, match="site"):
            Node("n1", "ghost.example", net, np.random.default_rng(1))

    def test_endpoint_helper(self):
        sim, net = make_world()
        node = Node("n1", "n1.example", net, np.random.default_rng(1), site="s1")
        assert node.endpoint(42) == Endpoint("n1.example", 42)


class TestNodeLifecycle:
    def test_start_kicks_off_ntp(self):
        sim, net = make_world()
        node = Node("n1", "n1.example", net, np.random.default_rng(1), site="s1")
        assert not node.started
        node.start()
        assert node.started
        assert not node.ntp.synchronized
        sim.run_for(5.5)
        assert node.ntp.synchronized

    def test_start_is_idempotent(self):
        sim, net = make_world()
        node = Node("n1", "n1.example", net, np.random.default_rng(1), site="s1")
        node.start()
        pending = sim.pending
        node.start()
        assert sim.pending == pending

    def test_utc_tracks_true_time_after_sync(self):
        sim, net = make_world()
        node = Node("n1", "n1.example", net, np.random.default_rng(1), site="s1")
        node.start()
        sim.run_for(10.0)
        assert abs(node.utc() - sim.now) < 0.021

    def test_nodes_have_independent_ids(self):
        sim, net = make_world()
        a = Node("a", "a.example", net, np.random.default_rng(1), site="s")
        b = Node("b", "b.example", net, np.random.default_rng(2), site="s")
        assert {a.ids() for _ in range(5)}.isdisjoint({b.ids() for _ in range(5)})

    def test_trace_goes_to_tracer(self):
        sim, net = make_world()
        obs = Observability(lambda: sim.now, ring_capacity=0, keep_trace=True)
        node = Node("a", "a.example", net, np.random.default_rng(1), site="s", obs=obs)
        node.emit("link_up", detail="x")
        assert obs.count("link_up") == 1
        assert obs.events("link_up")[0].node == "a"
        # A sink that is not observing hears plain events only.
        assert not node.observing
        node.emit("send", "req-1")
        assert obs.count("send") == 0 and not obs.recorders

    def test_observing_sink_hears_plain_and_causal(self):
        sim, net = make_world()
        obs = Observability(lambda: sim.now)
        node = Node("a", "a.example", net, np.random.default_rng(1), site="s", obs=obs)
        assert node.observing and len(obs.recorders["a"]) == 0  # idle ring exists
        node.emit("link_up")
        node.emit("send", "req-1", 2, kind="Ack")
        assert obs.count("link_up") == obs.count("send") == 1
        (event,) = obs.recorders["a"].snapshot()
        assert (event.event, event.trace_id, event.hop) == ("send", "req-1", 2)

    def test_trace_without_tracer_is_noop(self):
        sim, net = make_world()
        node = Node("a", "a.example", net, np.random.default_rng(1), site="s")
        node.emit("anything")  # must not raise
        node.emit("anything", "req-1")
