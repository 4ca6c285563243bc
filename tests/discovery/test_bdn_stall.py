"""A BDN whose event loop stalls, on real sockets, in loop time.

A stall is a blocked loop: no timer fires and no socket is read until
it returns, so on wake the BDN's overdue sweep and the datagrams queued
on its socket meet in one loop pass.  Here it is
:meth:`~tests.runtime.virtual_loop.VirtualLoop.stall`: the loop's clock
jumps while a coroutine still holds the loop, which is what a blocking
call does to a real loop, without waiting it out.  Two promises are
pinned here:

* the BDN prunes a broker for sweep pings it sent and got no answer
  to, never for the time that passed, so a stall forgets nobody;
* a stall longer than a lease: on wake the BDN applies the renewals it
  reads before its overdue sweep runs -- asyncio serves the readable
  sockets before the due timers, and one readiness callback reads at
  most ``_UDP_DRAIN_MAX`` datagrams -- so exactly the first
  ``_UDP_DRAIN_MAX`` queued renewals save their leases.  A lease whose
  renewal is still queued is evicted by that sweep and enters again
  when the renewal is read on the next pass.
"""

from __future__ import annotations

import asyncio
import socket

import numpy as np

from repro.core.codec import encode_message
from repro.core.config import BDNConfig
from repro.core.messages import BrokerAdvertisement
from repro.discovery.bdn import BDN
from repro.experiments.harness import star_world
from repro.obs import Observability
from repro.runtime import create_runtime
from repro.runtime.aio import _UDP_DRAIN_MAX
from tests.runtime.virtual_loop import run


def test_a_stalled_loop_forgets_no_broker():
    async def scenario():
        rt = create_runtime("aio")
        world = star_world(rt, seed=3)
        try:
            await rt.ready()
            for node in world.nodes():
                node.ntp.sync_now()
            world.advertise()
            await asyncio.sleep(0.1)
            loop = asyncio.get_running_loop()
            for _ in range(2):
                done = loop.create_future()
                world.client.discover(done.set_result)
                await asyncio.wait_for(done, timeout=15.0)
            assert len(world.bdn.store) == 3
            loop.stall(2.5)  # five ping intervals with no sweep and no pong
            await asyncio.sleep(0.6)  # the overdue sweep, and one more
            registered = len(world.bdn.store)
            done = loop.create_future()
            world.client.discover(done.set_result)
            outcome = await asyncio.wait_for(done, timeout=15.0)
        finally:
            await rt.aclose()
        assert not rt.errors, list(rt.errors)
        return registered, outcome

    registered, outcome = run(scenario())
    assert registered == 3
    assert outcome.success
    assert (outcome.via, outcome.transmissions) == ("bdn", 1)


def _ad(i: int, stamp: float) -> BrokerAdvertisement:
    return BrokerAdvertisement(
        broker_id=f"b{i}",
        hostname=f"h{i}.local",
        transports=(("udp", 5046),),
        logical_address=f"/s{i}/b{i}",
        ttl=1.0,
        issued_at=stamp,
    )


def test_a_stall_longer_than_a_lease_keeps_the_renewals_read_before_the_sweep():
    n = _UDP_DRAIN_MAX + 1

    async def scenario():
        rt = create_runtime("aio")
        obs = Observability(clock=lambda: rt.now, ring_capacity=0, keep_trace=True)
        rt.register_host("bdn0.local", "site0")
        bdn = BDN(
            "bdn0",
            "bdn0.local",
            rt,
            np.random.default_rng(0),
            config=BDNConfig(injection="all", ping_interval=0.5),
            site="site0",
            obs=obs,
        )
        bdn.start()
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        target = rt.real_address(bdn.udp_endpoint)
        try:
            for i in range(n):
                sender.sendto(encode_message(_ad(i, 1.0)), target)
            await asyncio.sleep(0.1)
            assert bdn.store.broker_ids() == [f"b{i}" for i in range(n)]
            # Every broker renews, and the renewals queue on the BDN's
            # socket behind a stall that outlives their 1 s leases.
            for i in range(n):
                sender.sendto(encode_message(_ad(i, 2.0)), target)
            asyncio.get_running_loop().stall(1.5)
            await asyncio.sleep(0.2)
        finally:
            sender.close()
            bdn.stop()
            await rt.aclose()
        assert not rt.errors, list(rt.errors)
        return bdn, obs

    bdn, obs = run(scenario())
    expired = [e.detail for e in obs.log if e.event == "bdn_lease_expired"]
    assert expired == [(("broker", f"b{i}"),) for i in range(_UDP_DRAIN_MAX, n)]
    # The evicted broker entered again with its queued renewal; nobody
    # was pinged or pruned, for every lease here vouches for its broker.
    assert bdn.store.broker_ids() == [f"b{i}" for i in range(n)]
    assert obs.count("bdn_registered") == 2 * n
    assert obs.count("bdn_pruned") == 0
    assert bdn.pinger.pings_sent == 0
