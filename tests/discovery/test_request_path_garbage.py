"""The request path leaves nothing for the cyclic collector.

A BDN fan-out timer and a responder reply timer carry their state as
``args`` and never reference their own handle, so once a timer fired or
was cancelled, reference counting alone frees it, its message and the
handle.  Each test switches the collector off, drives requests, and then
asks ``gc.collect()`` how many unreachable objects only it could free.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.messages import DiscoveryResponse
from repro.simnet.simulator import Simulator
from tests.discovery.conftest import World
from tests.discovery.test_responder_lifecycle import inbox_of, make_request


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_no_cyclic_garbage() -> None:
    """``gc.collect()`` finds nothing; on failure, name what it found."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        names = Counter(
            getattr(obj, "__qualname__", type(obj).__qualname__) for obj in gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == 0, f"{found} objects only the collector could free: {names.most_common(12)}"


def lean_world() -> tuple[World, list]:
    """One ``closest_farthest`` BDN, two unconnected responders, and a
    bare socket standing in for the requester."""
    world = World(n_brokers=2, injection="closest_farthest")
    return world, inbox_of(world)


def send_lean(world: World, uuid: str) -> None:
    world.net.network.send_udp(
        world.client.udp_endpoint, world.bdn.udp_endpoint, make_request(world, uuid=uuid)
    )


def test_200_lean_requests_leave_no_cyclic_garbage():
    world, box = lean_world()
    with collector_off():
        for i in range(200):
            send_lean(world, f"lean-{i}")
            world.sim.run_for(0.005)
        world.sim.run_for(1.0)
        assert world.bdn.requests_disseminated == 200
        assert len([m for m in box if isinstance(m, DiscoveryResponse)]) == 400
        assert_no_cyclic_garbage()


def test_stop_with_timers_in_flight_frees_them_and_nothing_fires():
    world, box = lean_world()
    responder = world.responders["b0"]
    with collector_off():
        for i in range(20):
            send_lean(world, f"lean-{i}")
        world.sim.run_for(0.011)  # the BDN has them; its first fan-out is due at 60 ms
        assert world.bdn.requests_disseminated == 20
        for i in range(20):  # straight to a responder: 20 reply timers pending
            responder._on_udp_request(
                make_request(world, uuid=f"direct-{i}"), world.client.udp_endpoint
            )
        assert responder.pending_responses == 20
        world.bdn.stop()
        for r in world.responders.values():
            r.stop()
        assert responder.pending_responses == 0
        sent = world.net.network.datagrams_sent
        # Past every cancelled deadline (replies 8 ms, fan-out 120 ms) but
        # short of the BDN's next sweep tick: a cancelled call_every series
        # is a cycle of its own, one per series and not per request.
        world.sim.run_for(1.0)
        assert not [m for m in box if isinstance(m, DiscoveryResponse)]
        assert responder.responses_sent == 0
        assert world.net.network.datagrams_sent == sent
        assert_no_cyclic_garbage()


def test_drain_counts_down_to_zero_as_scheduled_replies_fire():
    world, _ = lean_world()
    responder = world.responders["b0"]
    for i in range(5):
        responder._on_udp_request(make_request(world, uuid=f"req-{i}"), world.client.udp_endpoint)
    responder.drain()
    seen = [responder.pending_responses]
    while responder.pending_responses and world.sim.now < 30.0:
        world.sim.step()
        if responder.pending_responses != seen[-1]:
            seen.append(responder.pending_responses)
    assert seen == [5, 4, 3, 2, 1, 0]
    assert responder.responses_sent == 5


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
def test_cancel_releases_what_only_the_timer_args_held(scheduler):
    class Payload:
        pass

    sim = Simulator(scheduler)
    payload = Payload()
    ref = weakref.ref(payload)
    with collector_off():
        handle = sim.schedule(30.0, lambda _payload: None, payload)
        del payload
        assert ref() is not None
        handle.cancel()
        assert ref() is None  # while the dead entry is still queued
        assert sim.queue_size == 1
