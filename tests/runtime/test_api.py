"""The runtime contract: structural conformance and coercion."""

from __future__ import annotations

import pytest

from repro.core.errors import UnknownHostError
from repro.runtime import create_runtime
from repro.runtime.api import Runtime, Scheduler, TimerHandle, Transport, as_runtime
from repro.runtime.aio import AioRuntime
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator


class TestStructuralConformance:
    def test_simulator_is_a_scheduler(self):
        assert isinstance(Simulator(), Scheduler)

    def test_network_is_a_transport(self):
        assert isinstance(Network(Simulator()), Transport)

    def test_sim_runtime_is_a_runtime(self):
        rt = Network(Simulator())
        assert isinstance(rt, Runtime)
        assert rt.kind == "sim"

    def test_aio_runtime_is_a_runtime(self):
        rt = AioRuntime()
        assert isinstance(rt, Runtime)
        assert rt.kind == "aio"

    def test_scheduled_event_is_a_timer_handle(self):
        handle = Simulator().schedule(1.0, lambda: None)
        assert isinstance(handle, TimerHandle)
        assert handle.cancelled is False
        handle.cancel()
        assert handle.cancelled is True


class TestAsRuntime:
    def test_network_is_its_own_runtime(self):
        net = Network(Simulator())
        assert as_runtime(net) is net

    def test_runtime_passes_through(self):
        aio = AioRuntime()
        assert as_runtime(aio) is aio

    def test_rejects_non_fabric(self):
        with pytest.raises(TypeError):
            as_runtime(object())


class TestNetworkIsItsOwnRuntime:
    def test_time_and_timers_are_the_simulator(self):
        net = rt = Network(Simulator())
        fired = []
        rt.schedule(1.5, fired.append, "a")
        series = rt.call_every(1.0, fired.append, "b")
        net.sim.run_for(3.2)
        assert rt.now == net.sim.now
        assert fired == ["b", "a", "b", "b"]
        series.cancel()
        net.sim.run_for(5.0)
        assert len(fired) == 4

    def test_transport_is_the_fabric(self):
        rt = Network(Simulator())
        rt.register_host("h", "site-a", realm="r")
        assert rt.hosts.site_of("h") == "site-a"
        assert rt.realm_of("h") == "r"
        assert rt.multicast_enabled("h") is True
        with pytest.raises(UnknownHostError):
            rt.site_of("nope")


class TestCreateRuntime:
    def test_sim_kind_builds_a_fabric(self):
        rt = create_runtime("sim")
        assert rt.kind == "sim"
        assert isinstance(rt, Network)

    def test_sim_kind_accepts_existing_network(self):
        net = Network(Simulator())
        assert create_runtime("sim", network=net) is net

    def test_aio_kind(self):
        rt = create_runtime("aio", bind_ip="127.0.0.1")
        assert rt.kind == "aio"
        assert rt.bind_ip == "127.0.0.1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            create_runtime("quantum")
