"""DiscoveryResponder lifecycle: start/stop under both runtimes.

A stopped responder must be inert -- no responses, no heartbeats, no
pending timers that fire later -- and both ``start`` and ``stop`` must
be idempotent.  The same assertions run against the simulated runtime
and the real asyncio runtime, since the responder is sans-IO and cannot
tell them apart.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.config import Endpoint
from repro.core.messages import BrokerAdvertisement, DiscoveryRequest, DiscoveryResponse
from repro.discovery.responder import DiscoveryResponder
from repro.runtime.aio import AioRuntime
from repro.substrate.broker import Broker
from tests.discovery.conftest import World
from tests.runtime.virtual_loop import run


def make_request(world: World, uuid="req-1", attempt=0):
    return DiscoveryRequest(
        uuid=uuid,
        requester_host=world.client.host,
        requester_port=7500,
        issued_at=world.client.utc(),
        attempt=attempt,
    )


def inbox_of(world: World) -> list:
    box = []
    world.net.network.unbind_udp(world.client.udp_endpoint)
    world.net.network.bind_udp(world.client.udp_endpoint, lambda m, s: box.append(m))
    return box


class TestSimRuntimeLifecycle:
    def test_stop_is_idempotent_and_start_reactivates(self):
        world = World(n_brokers=1)
        responder = world.responders["b0"]
        box = inbox_of(world)
        responder.stop()
        responder.stop()  # second stop is a no-op
        assert responder.active is False
        world.bdn.runtime.send_udp(
            world.client.udp_endpoint, world.brokers[0].udp_endpoint, make_request(world)
        )
        world.sim.run_for(1.0)
        assert responder.requests_processed == 0
        assert not [m for m in box if isinstance(m, DiscoveryResponse)]
        responder.start()
        responder.start()  # second start is a no-op
        assert responder.active is True
        world.bdn.runtime.send_udp(
            world.client.udp_endpoint,
            world.brokers[0].udp_endpoint,
            make_request(world, uuid="req-2"),
        )
        world.sim.run_for(1.0)
        assert responder.requests_processed == 1
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 1

    def test_no_sends_after_stop_cancels_pending_response(self):
        """A response already scheduled (processing delay pending) must
        not fire once the responder stops."""
        world = World(n_brokers=1)
        responder = world.responders["b0"]
        box = inbox_of(world)
        # Hand the request to the responder directly: the response is now
        # scheduled a few milliseconds out.
        responder._on_udp_request(make_request(world), world.client.udp_endpoint)
        assert responder.requests_processed == 1
        responder.stop()
        world.sim.run_for(2.0)
        assert responder.responses_sent == 0
        assert not [m for m in box if isinstance(m, DiscoveryResponse)]

    def test_stop_detaches_heartbeats(self):
        world = World(n_brokers=1, register=False)
        responder = world.responders["b0"]
        # A fake BDN endpoint that just collects advertisements.
        ads = []
        fake_bdn = Endpoint("fake-bdn.host", 7000)
        world.net.network.register_host("fake-bdn.host", "fake-site")
        world.net.network.bind_udp(fake_bdn, lambda m, s: ads.append(m))
        responder.attach_heartbeat([fake_bdn], interval=1.0)
        world.sim.run_for(3.5)
        before = len([m for m in ads if isinstance(m, BrokerAdvertisement)])
        assert before >= 3  # burst + periodic renewals arrived
        responder.stop()
        assert responder.heartbeat is None
        world.sim.run_for(5.0)
        after = len([m for m in ads if isinstance(m, BrokerAdvertisement)])
        assert after == before  # nothing sent after stop


class TestAioRuntimeLifecycle:
    def _build(self, rt: AioRuntime):
        rt.register_host("b0.local", "site0", realm="lab")
        rt.register_host("probe.local", "site1", realm="lab")
        broker = Broker("b0", "b0.local", rt, np.random.default_rng(1))
        responder = DiscoveryResponder(broker)
        box: list = []
        probe = Endpoint("probe.local", 7500)
        rt.bind_udp(probe, lambda m, s: box.append(m))
        broker.start()
        return broker, responder, probe, box

    @staticmethod
    def _request(broker: Broker, uuid: str) -> DiscoveryRequest:
        return DiscoveryRequest(
            uuid=uuid,
            requester_host="probe.local",
            requester_port=7500,
            issued_at=broker.utc(),
            attempt=0,
        )

    @staticmethod
    async def _settle(seconds: float = 0.15) -> None:
        await asyncio.sleep(seconds)

    def test_lifecycle_over_real_sockets(self):
        async def scenario():
            rt = AioRuntime()
            broker, responder, probe, box = self._build(rt)
            await rt.ready()
            broker.ntp.sync_now()
            # Active: a request gets a response over real UDP.
            rt.send_udp(probe, broker.udp_endpoint, self._request(broker, "live-1"))
            await self._settle()
            assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 1
            # Stopped (idempotent): silence, and nothing pending fires.
            responder.stop()
            responder.stop()
            rt.send_udp(probe, broker.udp_endpoint, self._request(broker, "live-2"))
            await self._settle()
            assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 1
            assert responder.pending_responses == 0
            # Restarted (idempotent): answering again.
            responder.start()
            responder.start()
            rt.send_udp(probe, broker.udp_endpoint, self._request(broker, "live-3"))
            await self._settle()
            assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 2
            assert not rt.errors
            await rt.aclose()

        run(scenario())

    def test_stop_detaches_heartbeats_over_real_sockets(self):
        async def scenario():
            rt = AioRuntime()
            broker, responder, probe, box = self._build(rt)
            await rt.ready()
            broker.ntp.sync_now()
            responder.attach_heartbeat([probe], interval=0.05)
            await self._settle(0.3)
            before = len([m for m in box if isinstance(m, BrokerAdvertisement)])
            assert before >= 3
            responder.stop()
            assert responder.heartbeat is None
            # A beat due in the pass that woke us may still sit unread
            # in the probe's socket; drain it, then require silence.
            await self._settle(0.1)
            baseline = len([m for m in box if isinstance(m, BrokerAdvertisement)])
            await self._settle(0.3)
            after = len([m for m in box if isinstance(m, BrokerAdvertisement)])
            assert after == baseline
            assert not rt.errors
            await rt.aclose()

        run(scenario())
