"""The asyncio runtime: real sockets, timers on the loop's clock, same contract.

Every test runs a short asyncio scenario on localhost, in loop time
(:mod:`tests.runtime.virtual_loop`): a datagram is read at the clock
reading it was sent at, an idle wait is a jump of exactly its length,
and a stall is :meth:`VirtualLoop.stall`, so waits and assertions are
exact.  The tests marked ``real_loop`` measure what only the real
selector does -- its millisecond rounding -- on asyncio's default loop.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time

import pytest

from repro.core.codec import encode_message
from repro.core.config import Endpoint
from repro.core.messages import Ack, PingRequest
from repro.core.errors import TransportError
from repro.runtime import create_runtime
from repro.runtime import aio
from repro.runtime.aio import AioRuntime
from tests.runtime.hosts_contract import (
    AioSide,
    FaultContract,
    HostRegistryContract,
    MulticastContract,
    UdpContract,
)
from tests.runtime.virtual_loop import run


async def settle(seconds: float = 0.15) -> None:
    await asyncio.sleep(seconds)


class TestHostRegistry(HostRegistryContract):
    Side = AioSide


class TestScheduler:
    def test_now_is_monotone_and_starts_near_zero(self):
        async def scenario():
            rt = AioRuntime()
            assert rt.now == 0.0
            await asyncio.sleep(0.05)
            assert rt.now == pytest.approx(0.05)

        run(scenario())

    def test_schedule_and_cancel(self):
        async def scenario():
            rt = AioRuntime()
            fired = []
            rt.schedule(0.02, fired.append, "kept")
            doomed = rt.schedule(0.02, fired.append, "cancelled")
            doomed.cancel()
            assert doomed.cancelled
            await settle(0.1)
            assert fired == ["kept"]

        run(scenario())

    def test_schedule_rejects_negative_delay(self):
        async def scenario():
            rt = AioRuntime()
            with pytest.raises(ValueError):
                rt.schedule(-0.1, lambda: None)

        run(scenario())

    def test_call_every_rejects_negative_first_delay_on_both_runtimes(self):
        """Parity: the live series used to reach ``call_later(-1)`` and
        fire at once where the simulator's raises."""

        async def scenario():
            rt = AioRuntime()
            fired = []
            with pytest.raises(ValueError):
                rt.call_every(0.02, fired.append, "tick", first_delay=-1)
            await settle(0.05)
            assert fired == []  # and nothing was left armed

        run(scenario())
        with pytest.raises(ValueError):
            create_runtime("sim").call_every(0.02, lambda: None, first_delay=-1)

    @pytest.mark.real_loop(
        "in loop time a sub-tick timer costs no time at all, so the bound holds vacuously"
    )
    def test_sub_tick_hops_in_series_cost_loop_passes_not_selector_ticks(self):
        """20 sequential 0.3 ms hops ask for 6 ms.  ``call_later`` makes
        each wait out the selector's millisecond rounding (>= 20 ms in
        all); next-pass timers finish the chain in well under one."""

        async def scenario():
            rt = AioRuntime()
            done = asyncio.get_running_loop().create_future()

            def hop(left):
                if left:
                    rt.schedule(0.0003, hop, left - 1)
                else:
                    done.set_result(time.monotonic())

            started = time.monotonic()
            rt.schedule(0.0003, hop, 19)
            elapsed = await asyncio.wait_for(done, timeout=5.0) - started
            assert elapsed < 0.010
            assert not rt.errors

        asyncio.run(scenario())

    def test_sub_tick_timers_fire_next_pass_in_arming_order(self):
        async def scenario():
            rt = AioRuntime()
            fired = []
            rt.schedule(0, fired.append, "zero")
            rt.schedule(1e-5, fired.append, "ten-us")
            doomed = rt.schedule(1e-4, fired.append, "cancelled")
            rt.schedule(4e-4, fired.append, "sub-tick")
            doomed.cancel()
            assert fired == []  # never synchronously inside schedule()
            await asyncio.sleep(0)  # one loop pass
            assert fired == ["zero", "ten-us", "sub-tick"]
            assert rt.now == 0.0
            await settle(0.02)
            assert fired == ["zero", "ten-us", "sub-tick"]

        run(scenario())

    @pytest.mark.real_loop("measures the real selector's millisecond rounding")
    @pytest.mark.parametrize("delay", [5e-4, 2e-3, 1.01e-2])
    def test_half_a_tick_and_above_never_fires_early(self, delay):
        async def scenario():
            rt = AioRuntime()
            for _ in range(10):
                fired_at = asyncio.get_running_loop().create_future()
                armed_at = time.monotonic()
                rt.schedule(delay, lambda: fired_at.set_result(time.monotonic()))
                assert await asyncio.wait_for(fired_at, timeout=5.0) - armed_at >= delay
                await asyncio.sleep(0.0007)  # a different phase of the tick each time

        asyncio.run(scenario())

    def test_next_pass_timer_that_raises_is_recorded(self):
        async def scenario():
            rt = AioRuntime()

            def explode():
                raise RuntimeError("timer bug")

            rt.schedule(1e-4, explode)
            fired = []
            rt.schedule(1e-4, fired.append, "after")
            await asyncio.sleep(0)
            assert fired == ["after"]  # the loop lived on
            assert list(rt.errors) == ["timer callback failed: RuntimeError('timer bug')"]

        run(scenario())

    @pytest.mark.real_loop("measures the period the real selector's rounding keeps")
    def test_call_every_keeps_its_period(self):
        """Regression: each tick was re-armed ``interval`` after the last
        one *ran*, so a 10.5 ms series ticked every 11.3 ms (callback
        time plus the selector's rounding, compounding)."""
        interval, count = 0.0105, 40

        async def scenario() -> float:
            rt = AioRuntime()
            done = asyncio.get_running_loop().create_future()
            ticks = []

            def tick():
                ticks.append(time.monotonic())
                if len(ticks) == count:
                    series.cancel()
                    done.set_result(None)

            started = time.monotonic()
            series = rt.call_every(interval, tick)
            await asyncio.wait_for(done, timeout=5.0)
            # No tick came early by more than the sub-tick hand-off.
            assert all(
                at - started >= (i + 1) * interval - 0.0006 for i, at in enumerate(ticks)
            )
            return ticks[-1] - started

        # A busy host can only add to a wall-clock figure, so the best of
        # three tries is the runtime's own (the old re-arm took 452 ms).
        assert any(asyncio.run(scenario()) <= count * interval + 0.003 for _ in range(3))

    def test_call_every_late_tick_does_not_burst(self):
        async def scenario():
            rt = AioRuntime()
            ticks = []

            def tick():
                ticks.append(rt.now)
                if len(ticks) == 1:
                    # Six periods gone by the time it returns.
                    asyncio.get_running_loop().stall(0.06)

            series = rt.call_every(0.01, tick)
            await settle(0.095)
            series.cancel()
            # One tick at once, at the stall's end, for the six that were
            # missed (the old re-arm waited out another interval first) ...
            assert ticks[1] == pytest.approx(ticks[0] + 0.06)
            # ... then the period again, not the backlog in a burst.
            assert ticks[2] == pytest.approx(ticks[1] + 0.01)
            assert ticks == pytest.approx([0.01, 0.07, 0.08, 0.09])

        run(scenario())

    def test_call_every_cancelled_before_or_inside_a_tick_stays_silent(self):
        async def scenario():
            rt = AioRuntime()
            never, once = [], []
            rt.call_every(0.01, never.append, "tick").cancel()
            rt.call_every(0.01, never.append, "tick", first_delay=0).cancel()

            def cancels_itself():
                once.append(rt.now)
                series.cancel()

            series = rt.call_every(0.01, cancels_itself)
            await settle(0.06)
            assert never == [] and len(once) == 1
            assert not rt.errors

        run(scenario())

    def test_call_every_survives_exceptions_until_cancelled(self):
        async def scenario():
            rt = AioRuntime()
            ticks = []

            def tick():
                ticks.append(rt.now)
                raise RuntimeError("boom")

            series = rt.call_every(0.02, tick)
            await settle(0.11)
            series.cancel()
            # The raising tick kept re-arming: 0.02, 0.04, ... 0.10.
            assert ticks == pytest.approx([0.02, 0.04, 0.06, 0.08, 0.10])
            assert len(rt.errors) == 5
            await settle(0.08)
            assert len(ticks) == 5  # cancelled: no further ticks

        run(scenario())

    def test_schedule_at_absolute_time(self):
        async def scenario():
            rt = AioRuntime()
            fired = []
            rt.schedule_at(rt.now + 0.03, lambda: fired.append(rt.now))
            await settle(0.1)
            assert fired == [pytest.approx(0.03)]

        run(scenario())


class TestUdp(UdpContract):
    Side = AioSide

    def test_round_trip_with_symbolic_source(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            rt.register_host("b.local", "sb")
            a, b = Endpoint("a.local", 100), Endpoint("b.local", 200)
            seen = []
            rt.bind_udp(a, lambda m, src: seen.append((m, src)))
            rt.bind_udp(b, lambda m, src: seen.append((m, src)))
            await rt.ready()
            rt.send_udp(a, b, Ack(uuid="u1", acked_by="a"))
            await settle()
            assert len(seen) == 1
            message, src = seen[0]
            assert isinstance(message, Ack) and message.uuid == "u1"
            assert src == a  # real source address mapped back to the symbolic endpoint
            assert rt.datagrams_delivered == 1
            await rt.aclose()

        run(scenario())

    def test_send_to_unbound_destination_is_a_drop(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            a = Endpoint("a.local", 100)
            rt.bind_udp(a, lambda m, s: None)
            rt.send_udp(a, Endpoint("dead.local", 1), Ack(uuid="u", acked_by="a"))
            assert rt.datagrams_sent == 1
            assert rt.datagrams_dropped == 1
            await rt.aclose()

        run(scenario())

    def test_unbind_is_idempotent_and_silences_the_port(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            a = Endpoint("a.local", 100)
            box = []
            rt.bind_udp(a, box.append)
            await rt.ready()
            rt.unbind_udp(a)
            rt.unbind_udp(a)
            rt.send_udp(a, a, Ack(uuid="u", acked_by="a"))
            await settle(0.05)
            assert box == []
            await rt.aclose()

        run(scenario())

    def test_double_bind_rejected(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            a = Endpoint("a.local", 100)
            rt.bind_udp(a, lambda m, s: None)
            with pytest.raises(TransportError):
                rt.bind_udp(a, lambda m, s: None)
            await rt.aclose()

        run(scenario())

    def test_handler_exception_is_recorded_not_fatal(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            a = Endpoint("a.local", 100)

            def explode(m, s):
                raise RuntimeError("handler bug")

            rt.bind_udp(a, explode)
            await rt.ready()
            rt.send_udp(a, a, Ack(uuid="u", acked_by="a"))
            await settle()
            assert len(rt.errors) == 1
            assert rt.datagrams_delivered == 1
            await rt.aclose()

        run(scenario())


class TestUdpReceivePath:
    """What a burst does, pinned on the path that reads the socket."""

    BURST = 100  # several readiness callbacks' worth

    def test_burst_queued_before_the_loop_runs_arrives_whole_and_in_order(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            rt.register_host("b.local", "sb")
            a, b = Endpoint("a.local", 100), Endpoint("b.local", 200)
            seen = []
            rt.bind_udp(a, lambda m, src: None)
            rt.bind_udp(b, lambda m, src: seen.append((m.uuid, src)))
            for i in range(self.BURST):  # no await: the kernel queues them all
                rt.send_udp(a, b, Ack(uuid=f"u{i}", acked_by="a"))
            assert seen == []
            await settle()
            assert seen == [(f"u{i}", a) for i in range(self.BURST)]
            assert rt.datagrams_delivered == self.BURST
            assert rt.datagrams_dropped == 0 and not rt.errors
            await rt.aclose()

        run(scenario())

    def test_handler_unbinding_its_own_endpoint_mid_burst_hears_no_more(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            rt.register_host("b.local", "sb")
            a, b = Endpoint("a.local", 100), Endpoint("b.local", 200)
            seen = []

            def third_is_enough(message, src):
                seen.append(message.uuid)
                if len(seen) == 3:
                    rt.unbind_udp(b)

            rt.bind_udp(a, lambda m, src: None)
            rt.bind_udp(b, third_is_enough)
            for i in range(10):
                rt.send_udp(a, b, Ack(uuid=f"u{i}", acked_by="a"))
            await settle(0.05)
            assert seen == ["u0", "u1", "u2"]
            assert rt.datagrams_delivered == 3
            assert not rt.errors
            await rt.aclose()

        run(scenario())

    def test_garbled_datagram_between_two_good_ones_is_one_drop(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("b.local", "sb")
            b = Endpoint("b.local", 200)
            seen = []
            rt.bind_udp(b, lambda m, src: seen.append((m.uuid, src)))
            peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            peer.bind(("127.0.0.1", 0))
            try:
                real = rt.real_address(b)
                peer.sendto(encode_message(Ack(uuid="before", acked_by="p")), real)
                peer.sendto(b"\x4e\x42\x02 not an ack", real)
                peer.sendto(encode_message(Ack(uuid="after", acked_by="p")), real)
                await settle()
                # An unmapped source surfaces as its real address.
                unmapped = Endpoint(*peer.getsockname())
                assert seen == [("before", unmapped), ("after", unmapped)]
                assert rt.datagrams_dropped == 1
                assert rt.datagrams_delivered == 2
                assert not rt.errors
            finally:
                peer.close()
                await rt.aclose()

        run(scenario())

    def test_bind_then_send_without_awaiting_ready_is_delivered(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("a.local", "sa")
            a = Endpoint("a.local", 100)
            seen = []
            rt.bind_udp(a, lambda m, src: seen.append(m.uuid))
            rt.send_udp(a, a, Ack(uuid="early", acked_by="a"))
            await settle()
            assert seen == ["early"]
            assert rt.datagrams_delivered == 1
            await rt.aclose()

        run(scenario())


class TestErrorRing:
    def test_errors_bounded_with_dropped_counter(self, monkeypatch):
        monkeypatch.setattr(aio, "_MAX_ERRORS", 4)

        async def scenario():
            rt = AioRuntime()
            for i in range(10):
                rt._note_error(f"boom {i}")
            assert len(rt.errors) == 4
            assert rt.errors_dropped == 6
            # The ring keeps the newest entries -- the evidence that
            # matters when a soak run finally gets looked at.
            assert list(rt.errors) == [f"boom {i}" for i in range(6, 10)]

        run(scenario())

    def test_default_capacity_never_drops_in_short_runs(self):
        async def scenario():
            rt = AioRuntime()
            rt._note_error("only one")
            assert list(rt.errors) == ["only one"]
            assert rt.errors_dropped == 0

        run(scenario())


class TestPortPlan:
    def test_planned_endpoints_bind_assigned_ports(self):
        async def scenario():
            import socket as socket_mod

            # Grab two free ports the way a cluster coordinator would.
            probes = []
            ports = []
            for _ in range(2):
                probe = socket_mod.socket()
                probe.bind(("127.0.0.1", 0))
                probes.append(probe)
                ports.append(probe.getsockname()[1])
            for probe in probes:
                probe.close()
            udp_ep = Endpoint("a.local", 100)
            tcp_ep = Endpoint("a.local", 500)
            rt = AioRuntime(port_plan={udp_ep: ports[0], tcp_ep: ports[1]})
            rt.register_host("a.local", "sa")
            rt.bind_udp(udp_ep, lambda m, s: None)
            rt.listen_tcp(tcp_ep, lambda c: None)
            await rt.ready()
            assert rt.real_address(udp_ep) == ("127.0.0.1", ports[0])
            assert rt.real_address(tcp_ep) == ("127.0.0.1", ports[1])
            await rt.aclose()

        run(scenario())

    def test_unplanned_endpoints_keep_ephemeral_ports(self):
        async def scenario():
            rt = AioRuntime(port_plan={})
            rt.register_host("a.local", "sa")
            ep = Endpoint("a.local", 100)
            rt.bind_udp(ep, lambda m, s: None)
            await rt.ready()
            real = rt.real_address(ep)
            assert real is not None and real[1] > 0
            await rt.aclose()

        run(scenario())


class TestMulticast(MulticastContract):
    Side = AioSide


class TestFaults(FaultContract):
    Side = AioSide


class TestTcpLinks:
    def test_connect_send_both_ways_and_close(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("srv.local", "s")
            rt.register_host("cli.local", "s")
            srv, cli = Endpoint("srv.local", 500), Endpoint("cli.local", 501)
            accepted, server_got, client_got = [], [], []

            def on_accept(conn):
                accepted.append(conn)
                conn.on_receive = lambda m, src: server_got.append((m, src))

            rt.listen_tcp(srv, on_accept)
            await rt.ready()
            links = []

            def on_connected(conn):
                links.append(conn)
                conn.on_receive = lambda m, src: client_got.append(m)
                conn.send(PingRequest(uuid="p1", sent_at=1.0, reply_host="cli.local", reply_port=501))

            rt.connect_tcp(cli, srv, on_connected)
            await settle()
            assert len(accepted) == 1 and len(links) == 1
            # Symbolic endpoints survive the preamble handshake.
            assert accepted[0].remote == cli and accepted[0].local == srv
            assert links[0].local == cli and links[0].remote == srv
            assert len(server_got) == 1
            message, src = server_got[0]
            assert message.uuid == "p1" and src == cli
            accepted[0].send(Ack(uuid="p1-ack", acked_by="srv"))
            await settle()
            assert len(client_got) == 1 and client_got[0].acked_by == "srv"
            # Closing one side closes the other (EOF -> on_close).
            closed = []
            links[0].on_close = lambda: closed.append("client")
            accepted[0].on_close = lambda: closed.append("server")
            links[0].close()
            await settle()
            assert "client" in closed and "server" in closed
            assert not accepted[0].open
            with pytest.raises(TransportError):
                links[0].send(Ack(uuid="late", acked_by="cli"))
            assert not rt.errors
            await rt.aclose()

        run(scenario())

    def test_oversized_frame_length_closes_the_link_unbuffered(self):
        """Regression: the u32 length prefix is the peer's word.  A raw
        peer announcing 4 GiB used to park the link in ``readexactly``,
        buffering whatever followed; now the announcement alone ends it."""

        async def scenario():
            loop = asyncio.get_running_loop()
            rt = AioRuntime()
            rt.register_host("srv.local", "s")
            srv = Endpoint("srv.local", 500)
            accepted, closed = [], []

            def on_accept(conn):
                accepted.append(conn)
                conn.on_close = lambda: closed.append(conn)

            rt.listen_tcp(srv, on_accept)
            await rt.ready()
            hostile = struct.pack(">BI", 1, 0xFFFFFFFF)
            preamble = b"raw.local:9"

            async def raw_peer(*frames: bytes) -> bytes:
                peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                peer.setblocking(False)
                try:
                    await loop.sock_connect(peer, rt.real_address(srv))
                    await loop.sock_sendall(peer, b"".join(frames))
                    # EOF (b"") is the runtime hanging up on us.
                    return await asyncio.wait_for(loop.sock_recv(peer, 16), timeout=5.0)
                finally:
                    peer.close()

            # As the very first frame: no link yet, the socket is dropped.
            assert await raw_peer(struct.pack(">BI", 0, 0xFFFFFFFF)) == b""
            assert len(rt.errors) == 1 and "exceeds" in rt.errors[0]
            assert not accepted
            # On an established link: that link closes, and says so.
            header = struct.pack(">BI", 0, len(preamble))
            assert await raw_peer(header, preamble, hostile, b"x" * 1024) == b""
            assert len(accepted) == 1 and closed == accepted
            assert not accepted[0].open
            assert len(rt.errors) == 2 and "exceeds" in rt.errors[1]
            await rt.aclose()

        run(scenario())

    def test_connect_to_silent_endpoint_raises(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("cli.local", "s")
            with pytest.raises(TransportError):
                rt.connect_tcp(
                    Endpoint("cli.local", 1), Endpoint("ghost.local", 2), lambda c: None
                )
            await rt.aclose()

        run(scenario())

    def test_stop_listening_refuses_new_connections(self):
        async def scenario():
            rt = AioRuntime()
            rt.register_host("srv.local", "s")
            rt.register_host("cli.local", "s")
            srv = Endpoint("srv.local", 500)
            rt.listen_tcp(srv, lambda c: None)
            await rt.ready()
            rt.stop_listening(srv)
            rt.stop_listening(srv)  # idempotent
            with pytest.raises(TransportError):
                rt.connect_tcp(Endpoint("cli.local", 1), srv, lambda c: None)
            await rt.aclose()

        run(scenario())
