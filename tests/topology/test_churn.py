"""Tests for the broker churn process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.substrate.builder import BrokerNetwork, Topology
from repro.topology.churn import ChurnProcess


def world(n=5):
    net = BrokerNetwork(seed=0)
    for i in range(n):
        net.add_broker(f"b{i}", site=f"s{i}")
    net.apply_topology(Topology.MESH)
    net.settle()
    return net


class TestChurnProcess:
    def test_events_happen(self):
        net = world()
        churn = ChurnProcess(net, np.random.default_rng(1), mean_interval=2.0)
        churn.start()
        net.sim.run_for(60.0)
        assert churn.stops + churn.restarts >= 5

    def test_min_alive_respected(self):
        net = world(4)
        churn = ChurnProcess(
            net, np.random.default_rng(2), mean_interval=0.5, min_alive=2
        )
        churn.start()
        for _ in range(100):
            net.sim.run_for(1.0)
            alive = sum(b.alive for b in net.broker_list())
            assert alive >= 2

    def test_restarted_broker_relinks(self):
        net = world(3)
        churn = ChurnProcess(net, np.random.default_rng(3), mean_interval=1.0)
        # Drive a manual stop/restart cycle through the private hooks.
        victim = net.brokers["b1"]
        churn._halt(victim)
        assert not victim.alive
        assert victim.peers == frozenset()
        churn._restart(victim)
        net.sim.run_for(2.0)
        assert victim.alive
        assert victim.peers == {"b0", "b2"}

    def test_stop_ends_scheduling(self):
        net = world()
        churn = ChurnProcess(net, np.random.default_rng(4), mean_interval=1.0)
        churn.start()
        net.sim.run_for(10.0)
        events_before = churn.stops + churn.restarts
        churn.stop()
        net.sim.run_for(30.0)
        assert churn.stops + churn.restarts == events_before

    def test_validation(self):
        net = world()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ChurnProcess(net, rng, mean_interval=0.0)
        with pytest.raises(ValueError):
            ChurnProcess(net, rng, min_alive=-1)

    def test_start_idempotent(self):
        net = world()
        churn = ChurnProcess(net, np.random.default_rng(6), mean_interval=5.0)
        churn.start()
        pending = net.sim.pending
        churn.start()
        assert net.sim.pending == pending
