"""The loop-time event loop the aio tests run on (``virtual_loop.py``).

What the other aio tests take for granted, pinned: a datagram on
loopback is read before the clock jumps past it, a stall is served as a
blocked loop is (sockets first, then the overdue timers), and the clock
moves only when the loop is idle or stalled, never backwards.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import Endpoint
from repro.core.messages import Ack
from repro.runtime.aio import AioRuntime
from tests.runtime.virtual_loop import VirtualLoop, run


def two_hosts(rt: AioRuntime, heard: list) -> tuple[Endpoint, Endpoint]:
    """``a`` sends, ``b`` notes each datagram with the time it was read."""
    rt.register_host("a.local", "sa")
    rt.register_host("b.local", "sb")
    a, b = Endpoint("a.local", 100), Endpoint("b.local", 200)
    rt.bind_udp(a, lambda m, src: None)
    rt.bind_udp(b, lambda m, src: heard.append(("datagram", rt.now)))
    return a, b


def test_a_datagram_sent_before_a_long_timer_is_read_before_the_jump():
    async def scenario():
        rt = AioRuntime()
        heard: list = []
        a, b = two_hosts(rt, heard)
        rt.schedule(10.0, lambda: heard.append(("timer", rt.now)))
        rt.send_udp(a, b, Ack(uuid="u", acked_by="a"))
        await asyncio.sleep(10.0)
        await rt.aclose()
        return heard

    assert run(scenario()) == [("datagram", 0.0), ("timer", 10.0)]


def test_after_a_stall_readable_sockets_are_served_before_overdue_timers():
    async def scenario():
        rt = AioRuntime()
        heard: list = []
        a, b = two_hosts(rt, heard)
        rt.schedule(0.5, lambda: heard.append(("timer", rt.now)))
        rt.send_udp(a, b, Ack(uuid="u", acked_by="a"))
        asyncio.get_running_loop().stall(1.0)  # the datagram queues, unread
        assert heard == []
        await asyncio.sleep(0.1)
        await rt.aclose()
        return heard

    # Both at the stall's end, in the order a blocked real loop wakes in.
    assert run(scenario()) == [("datagram", 1.0), ("timer", 1.0)]


def test_the_clock_moves_only_by_jumps_and_stalls_and_never_back():
    loop = VirtualLoop()
    readings = []

    async def scenario():
        rt = AioRuntime()
        heard: list = []
        a, b = two_hosts(rt, heard)
        readings.append(loop.time())
        for i in range(50):  # loop passes and socket traffic take no loop time
            rt.send_udp(a, b, Ack(uuid=f"u{i}", acked_by="a"))
            await asyncio.sleep(0)
        assert len(heard) == 50
        readings.append(loop.time())
        await asyncio.sleep(0.25)  # idle: one jump, of exactly the wait
        readings.append(loop.time())
        loop.stall(1.0)
        readings.append(loop.time())
        with pytest.raises(ValueError):
            loop.stall(-0.1)
        readings.append(loop.time())
        await rt.aclose()

    try:
        assert loop.time() == 0.0
        loop.run_until_complete(scenario())
    finally:
        loop.close()
    assert readings == [0.0, 0.0, 0.25, 1.25, 1.25]
