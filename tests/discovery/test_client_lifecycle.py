"""DiscoveryClient lifecycle: start/stop under both runtimes.

Graceful drain (a SIGTERM'd load generator, a rolling restart) stops
clients that may never have started, or stops them twice; both must be
no-ops.  And a stop with a discovery in flight must fail that discovery
immediately -- the completion callback is a promise, not a maybe.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ClientConfig, Endpoint
from repro.discovery.requester import DiscoveryClient
from repro.runtime.aio import AioRuntime
from tests.discovery.conftest import World
from tests.runtime.virtual_loop import run


class TestSimRuntimeLifecycle:
    def _fresh_client(self, world: World, name: str = "late-client") -> DiscoveryClient:
        return DiscoveryClient(
            name,
            f"{name}.host",
            world.net.network,
            np.random.default_rng(99),
            config=ClientConfig(bdn_endpoints=(world.bdn.udp_endpoint,)),
            site="client-site",
        )

    def test_stop_before_start_is_a_noop(self):
        world = World(n_brokers=1)
        client = self._fresh_client(world)
        assert client.started is False
        client.stop()  # never started: nothing to unbind, nothing raised
        assert client.started is False
        client.start()
        assert client.started is True
        client.stop()
        assert client.started is False

    def test_double_stop_is_a_noop(self):
        world = World(n_brokers=1)
        client = world.client
        client.stop()
        client.stop()
        assert client.started is False
        # The port is free again: a restart rebinds and discovery works.
        client.start()
        client.start()
        outcome = world.discover()
        assert outcome.success

    def test_stop_fails_inflight_discovery_immediately(self):
        world = World(n_brokers=1)
        outcomes = []
        world.client.discover(outcomes.append)
        world.client.stop()
        assert len(outcomes) == 1
        assert outcomes[0].success is False


class TestAioRuntimeLifecycle:
    def test_stop_before_start_and_double_stop(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("c0.host", "client-site")
            client = DiscoveryClient(
                "c0",
                "c0.host",
                rt,
                np.random.default_rng(7),
                config=ClientConfig(
                    bdn_endpoints=(Endpoint("ghost-bdn.host", 7000),),
                    use_multicast_fallback=False,
                ),
                site="client-site",
            )
            client.stop()  # stop before start: no unbind attempted
            assert client.started is False
            client.start()
            client.start()  # idempotent: no double bind
            await rt.ready()
            assert rt.real_address(client.udp_endpoint) is not None
            client.stop()
            client.stop()
            assert client.started is False
            assert rt.real_address(client.udp_endpoint) is None
            # Restart binds a fresh socket.
            client.start()
            await rt.ready()
            assert rt.real_address(client.udp_endpoint) is not None
            client.stop()
            assert not rt.errors
            await rt.aclose()

        run(scenario())
