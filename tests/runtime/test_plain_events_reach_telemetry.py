"""A live process hears its own retransmits.

Wired the way ``cluster/worker.py`` wires a process -- an
:class:`~repro.runtime.aio.AioRuntime` with an attached
:class:`~repro.obs.Observability`, nodes given ``obs=`` and nothing
else -- a failed discovery round must leave its plain events (the
fabric's ``udp_drop``, the engine's ``request_retransmit`` and
``discover_failed``) in the telemetry snapshot the worker ships.  Before
the two tracing systems were merged only a ``tracer=`` heard these, and
no live process was ever handed one.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.config import ClientConfig, Endpoint
from repro.discovery.requester import DiscoveryClient
from repro.experiments.harness import run_discovery_once, star_world
from repro.obs import Observability
from repro.obs.export import prometheus_text, telemetry_snapshot
from repro.runtime import create_runtime
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from tests.runtime.virtual_loop import run


def _event_counts(obs: Observability) -> dict[str, int]:
    metrics = telemetry_snapshot(obs)["metrics"]
    prefix = "obs.event."
    return {
        name[len(prefix) :]: entry["value"]
        for name, entry in metrics.items()
        if name.startswith(prefix)
    }


def test_failed_live_round_counts_drops_retransmits_and_the_failure():
    async def scenario():
        rt = create_runtime("aio")
        obs = Observability.for_runtime(rt)
        rt.attach_observability(obs)
        client = DiscoveryClient(
            "client0",
            "client0.local",
            rt,
            np.random.default_rng(7),
            config=ClientConfig(
                # Nobody ever bound this endpoint: every request to it
                # vanishes in the runtime, like a send to a dead host.
                bdn_endpoints=(Endpoint("nowhere.local", 7000),),
                response_timeout=0.05,
                retransmit_interval=0.05,
                max_retransmits=2,
                use_multicast_fallback=False,
            ),
            site="site9",
            obs=obs,
        )
        client.start()
        try:
            await rt.ready()
            done = asyncio.get_event_loop().create_future()
            client.discover(done.set_result)
            outcome = await asyncio.wait_for(done, timeout=10.0)
            telemetry = telemetry_snapshot(obs)
        finally:
            await rt.aclose()
        assert not rt.errors, list(rt.errors)
        return outcome, obs, rt, telemetry

    outcome, obs, rt, telemetry = run(scenario())
    assert not outcome.success
    counts = _event_counts(obs)
    assert counts["udp_drop"] == rt.datagrams_dropped > 0
    assert counts["request_retransmit"] == 2
    assert counts["discover_failed"] == 1
    # The same numbers ride every artifact a worker ships: the telemetry
    # snapshot and the Prometheus dump.
    assert telemetry["metrics"]["obs.event.request_retransmit"]["value"] == 2
    assert "repro_obs_event_udp_drop " in prometheus_text(obs.registry)


def test_failed_sim_round_counts_the_same_engine_events():
    rt = create_runtime(
        "sim",
        latency=UniformLatencyModel(base=0.0005),
        loss=NoLoss(),
        rng=np.random.default_rng(8),
    )
    obs = Observability.for_runtime(rt)
    world = star_world(rt, 7, obs)
    rt.sim.run_for(6.0)
    # Nobody answers: the BDN and every broker are down.
    world.bdn.stop()
    for broker in world.brokers:
        broker.stop()
    outcome = run_discovery_once(world.client, max_virtual_seconds=60.0)
    assert not outcome.success
    counts = _event_counts(obs)
    assert counts["request_retransmit"] > 0
    assert counts["discover_failed"] == 1
    # The simulated fabric records no udp_drop for an unbound destination.
    assert "udp_drop" not in counts
