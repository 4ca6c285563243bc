"""The live runtime: real asyncio UDP/TCP sockets, timers on the loop's clock.

This module runs the *same* protocol engines (brokers, BDNs, discovery
clients, responders) that the simulator runs, over real operating-
system sockets.  Design points:

* **Symbolic addressing survives.**  Protocol messages carry symbolic
  endpoints (``Endpoint("b0.site0", 5046)``) exactly as in simulation;
  the transport owns a registry mapping each *bound* symbolic endpoint
  to the real ``(ip, port)`` the OS assigned (everything binds to an
  ephemeral port on ``bind_ip``, default loopback).  Cross-process
  deployments can pre-seed the registry with :meth:`AioRuntime.map_endpoint`.
* **Real loss, no loss model.**  Datagrams are plain UDP ``sendto``
  calls: if the kernel drops them (full socket buffer, blocked send),
  they are gone -- the counters record it, nothing retransmits.  That
  is the paper's "usefully lossy" UDP for real.  The one injected drop
  is a fault: while a cut or a partition is open in the shared
  :class:`~repro.runtime.hosts.Hosts` fault table, ``send_udp`` drops a
  datagram across it and emits ``udp_cut``, as the simulated fabric
  does.  Loss storms stay the fabric's (TCP links ignore cuts here).
* **Synchronous socket setup, asynchronous I/O.**  ``bind_udp`` /
  ``listen_tcp`` create and bind the OS socket *synchronously* (so the
  real port is known, and sends can resolve it, the moment the call
  returns).  A UDP socket receives from that moment: the runtime reads
  it itself under ``loop.add_reader``, a ``recvfrom`` of a datagram's
  size, not asyncio's 256 KiB transport read.  A TCP listener attaches
  as a background task: await :meth:`AioRuntime.ready` after booting
  nodes so every listener is accepting before traffic starts.
* **A timer costs its delay, not the selector's tick.**  Every timer
  reaches the loop through :meth:`AioRuntime._arm`: a delay under half
  a selector tick runs on the next loop pass, a longer one is a
  ``call_later``, and a periodic series keeps its own schedule, so its
  period is its interval.
* **Multicast is emulated in-registry.**  CI loopback offers no IGMP;
  group membership lives in the same :class:`~repro.runtime.hosts.Hosts`
  table the simulated fabric uses, and :meth:`multicast` fans out real
  unicast datagrams to its in-realm members -- the fabric's semantics
  (realm-scoped, capability-gated, left on unbind) by the same code,
  real packets on the wire.
* **TCP links are length-prefixed frames.**  Each
  :class:`AioConnection` satisfies the :class:`~repro.runtime.api.Link`
  protocol; a one-frame preamble announces the connector's symbolic
  endpoint so both sides know ``local``/``remote`` symbolically.

Handler exceptions are caught and recorded in :attr:`AioRuntime.errors`
(and emitted as ``handler_error`` to an attached sink) rather than killing
the event loop; their count is a ``handler_errors`` breach
(:mod:`repro.core.invariants`) wherever a verdict reads this runtime.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.codec import decode_message, encode_message
from repro.core.config import Endpoint
from repro.core.errors import CodecError, TransportError
from repro.core.messages import Message
from repro.runtime.api import Handler, Link
from repro.runtime.hosts import Hosts

__all__ = ["AioRuntime", "AioTimerHandle", "AioConnection"]

# Frame kinds on TCP links.
_FRAME_PREAMBLE = 0  # payload: utf-8 "host:port" of the connector
_FRAME_MESSAGE = 1  # payload: one encoded Message
_FRAME_HEADER = struct.Struct(">BI")
# Above any legal message (an AntiEntropyDelta of 65 535 advertisements
# at 1 KiB each), far below the 4 GiB a u32 prefix could make us buffer.
_MAX_FRAME_BYTES = 64 * 1024 * 1024
_UDP_RECV_BYTES = 64 * 1024  # no UDP datagram is larger
# Datagrams one readiness callback delivers before timers and the other
# sockets get the loop back (level-triggered: the rest calls it again).
# Small on purpose: a socket drained dry marches its senders in step --
# at 4 and above, 32 closed-loop clients behind one BDN left the core
# idle 15-25 % of a saturated run (docs/experiments/pr-20.md).
_UDP_DRAIN_MAX = 2
# Handler-failure texts kept in ``AioRuntime.errors``.  The count is exact
# past the cap (``errors_dropped``), and one caught failure already breaks
# a run's verdict (``core.invariants.handler_errors``), so the ring only
# has to keep enough recent text to diagnose by: 256 lines, a few tens of
# KiB in a worker's final frame.
_MAX_ERRORS = 256
# What the default Linux loop's selector makes of a timeout:
# ``selectors.EpollSelector.select`` does ``math.ceil(timeout * 1e3) *
# 1e-3``, so a ``call_later`` fires up to one tick late whatever it asked
# for -- 0.3 ms waits 1.2 ms.  A delay under half a tick is closer to
# "now" than to anything the selector can deliver (see ``_arm``).
_TICK = 1e-3


class AioTimerHandle:
    """Cancellable handle over one armed ``asyncio.Handle`` (or a periodic series)."""

    __slots__ = ("cancelled", "_handle")

    def __init__(self) -> None:
        self.cancelled = False
        self._handle: asyncio.Handle | None = None

    def cancel(self) -> None:
        """Prevent any further firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


@dataclass
class _UdpBinding:
    sock: socket.socket
    handler: Handler


@dataclass
class _TcpListener:
    sock: socket.socket
    on_accept: Callable[[Link], None]
    server: asyncio.AbstractServer | None = None
    conn_tasks: set = field(default_factory=set)


class AioConnection:
    """One side of a live TCP link (satisfies the :class:`Link` protocol)."""

    def __init__(
        self,
        runtime: "AioRuntime",
        local: Endpoint,
        remote: Endpoint,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._runtime = runtime
        self.local = local
        self.remote = remote
        self._writer = writer
        self.on_receive: Handler | None = None
        self.on_close: Callable[[], None] | None = None
        self.open = True
        self.bytes_sent = 0
        self.messages_sent = 0

    def send(self, message: Message) -> None:
        """Reliably deliver ``message`` to the peer, preserving order."""
        if not self.open:
            raise TransportError(f"send on closed connection {self.local}->{self.remote}")
        payload = encode_message(message)
        self._writer.write(_FRAME_HEADER.pack(_FRAME_MESSAGE, len(payload)) + payload)
        self.bytes_sent += len(payload)
        self.messages_sent += 1
        self._runtime.bytes_sent += len(payload)

    def close(self) -> None:
        """Tear down the connection (idempotent; the peer sees EOF)."""
        if not self.open:
            return
        self.open = False
        try:
            self._writer.close()
        except Exception:  # pragma: no cover - platform-dependent teardown
            pass
        if self.on_close is not None:
            self.on_close()

    def _peer_gone(self) -> None:
        """The read loop hit EOF/reset: mirror :meth:`close` locally."""
        if self.open:
            self.open = False
            if self.on_close is not None:
                self.on_close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<AioConnection {self.local}->{self.remote} {state}>"


class AioRuntime:
    """Runtime over real asyncio sockets, telling time by its event loop.

    Parameters
    ----------
    bind_ip:
        IP every symbolic endpoint binds on (default loopback).
    port_plan:
        Optional mapping of symbolic :class:`Endpoint` to a concrete OS
        port.  A planned endpoint binds exactly that port instead of an
        ephemeral one -- how a cluster coordinator hands each worker
        process the ports its peers were told about.  Unplanned
        endpoints keep the default bind-port-0 behaviour.

    Handler failures are kept in the :attr:`errors` ring of
    ``_MAX_ERRORS`` entries; one past the cap evicts the oldest and
    bumps :attr:`errors_dropped`, so a soak run with a flapping peer
    cannot grow memory without bound.
    """

    kind = "aio"

    def __init__(
        self,
        bind_ip: str = "127.0.0.1",
        *,
        port_plan: Mapping[Endpoint, int] | None = None,
    ) -> None:
        self.bind_ip = bind_ip
        self._port_plan: dict[Endpoint, int] = dict(port_plan or {})
        self._loop: asyncio.AbstractEventLoop | None = None
        self._time: Callable[[], float] = self._unstarted  # the loop's, once captured
        self._t0 = 0.0
        self.hosts = hosts = Hosts()
        self.register_host = hosts.register
        self.site_of = hosts.site_of
        self.realm_of = hosts.realm_of
        self.multicast_enabled = hosts.multicast_enabled
        self.leave_multicast = hosts.leave
        self.multicast_members = hosts.members
        self.reachable = hosts.reachable
        self._info = hosts.info
        self._udp: dict[Endpoint, _UdpBinding] = {}
        self._listeners: dict[Endpoint, _TcpListener] = {}
        self._real_addr: dict[Endpoint, tuple[str, int]] = {}
        self._by_real: dict[tuple[str, int], Endpoint] = {}
        self._tasks: set[asyncio.Task] = set()
        self._egress: socket.socket | None = None
        self.errors: deque[str] = deque(maxlen=_MAX_ERRORS)
        self.errors_dropped = 0
        # Optional telemetry: attach_observability() wires a world's
        # Observability in, and it hears the fabric's events.
        self.observability = None
        # Counters, mirroring the simulated fabric's.
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.bytes_sent = 0
        self.connections_opened = 0

    # ------------------------------------------------------------------
    # Event loop plumbing
    # ------------------------------------------------------------------
    def loop(self) -> asyncio.AbstractEventLoop:
        """The owning event loop (captured on first use)."""
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
            self._time = self._loop.time
            self._t0 = self._time()
        return self._loop

    def _spawn(self, coro) -> asyncio.Task:
        task = self.loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)
        return task

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._note_error(f"background task failed: {exc!r}")

    async def ready(self) -> None:
        """Wait until every pending socket attachment has completed."""
        while True:
            pending = [t for t in self._tasks if not t.done()]
            if not pending:
                return
            await asyncio.sleep(0)

    def attach_observability(self, obs) -> None:
        """Register the world's :class:`~repro.obs.Observability`.

        The runtime sends it the fabric's plain events (``udp_deliver``
        / ``udp_drop`` / ``udp_cut`` / ``udp_garbled`` /
        ``handler_error``, named by host) so live runs count the same
        evidence simulations do.  A caller that wants the final telemetry
        snapshot takes it (:func:`repro.obs.export.telemetry_snapshot`)
        before :meth:`aclose`, as ``examples/live_discovery.py`` does.
        """
        self.observability = obs

    async def aclose(self) -> None:
        """Close every socket, server and background task."""
        for endpoint in list(self._udp):
            self.unbind_udp(endpoint)
        for endpoint in list(self._listeners):
            self.stop_listening(endpoint)
        if self._egress is not None:
            self._egress.close()
            self._egress = None
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def _note_error(self, text: str) -> None:
        if self.errors.maxlen is not None and len(self.errors) == self.errors.maxlen:
            self.errors_dropped += 1
        self.errors.append(text)
        if self.observability is not None:
            self.observability.emit("handler_error", "runtime", error=text)

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since this runtime captured its loop, on the loop's clock:
        the one every timer is due by.  A bare :func:`isinstance` probe
        outside a running loop reads 0.0 and captures no loop."""
        return self._time() - self._t0

    def _unstarted(self) -> float:
        try:  # a read inside a running loop captures it
            asyncio.get_running_loop()
        except RuntimeError:
            return self._t0
        return self.loop().time()

    def _arm(
        self, handle: AioTimerHandle, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Arm ``callback(*args)`` under ``handle``, ``delay`` seconds from now.

        The one place a timer reaches the event loop.  A delay of half a
        selector tick or more is a ``call_later``: never early, up to
        one ``_TICK`` and a wake-up late.  A shorter one is a
        ``call_soon``: the next loop pass (after one zero-timeout I/O
        poll, never re-entrant, FIFO in arming order), tens of
        microseconds away -- closer to its due time than the
        millisecond-plus ``call_later`` would make of it.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if delay < _TICK / 2:
            handle._handle = self.loop().call_soon(callback, *args)
        else:
            handle._handle = self.loop().call_later(delay, callback, *args)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> AioTimerHandle:
        """Run ``fn(*args)`` after ``delay`` seconds on the loop's clock."""
        handle = AioTimerHandle()
        self._arm(handle, delay, self._fire, handle, fn, args)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> AioTimerHandle:
        """Run ``fn(*args)`` at absolute runtime time ``time``."""
        return self.schedule(max(0.0, time - self.now), fn, *args)

    def call_every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: float | None = None,
    ) -> AioTimerHandle:
        """Run ``fn(*args)`` periodically until the handle is cancelled.

        Matches the simulator's semantics: one master handle controls
        the series, and a tick that raises (here: is recorded) does not
        end it.  The series keeps its own schedule -- each tick is due
        ``interval`` after the last one was *due*, not after it ran --
        so callback time and timer lateness do not stretch the period;
        a tick that is already late is followed by one tick at once, not
        by a burst of missed ones.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        series = AioTimerHandle()
        first = interval if first_delay is None else first_delay
        due = self.now + first

        def tick() -> None:
            nonlocal due
            if series.cancelled:
                return
            try:
                fn(*args)
            except Exception as exc:
                self._note_error(f"periodic callback failed: {exc!r}")
            if not series.cancelled:  # fn may have cancelled its own series
                now = self.now
                due = max(due + interval, now)
                self._arm(series, due - now, tick)

        self._arm(series, first, tick)
        return series

    def _fire(self, handle: AioTimerHandle, fn: Callable[..., Any], args: tuple) -> None:
        if handle.cancelled:
            return
        handle._handle = None
        try:
            fn(*args)
        except Exception as exc:
            self._note_error(f"timer callback failed: {exc!r}")

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def map_endpoint(self, endpoint: Endpoint, real_ip: str, real_port: int) -> None:
        """Pre-seed the symbolic->real address mapping (cross-process use)."""
        self._real_addr[endpoint] = (real_ip, real_port)
        self._by_real[(real_ip, real_port)] = endpoint

    def real_address(self, endpoint: Endpoint) -> tuple[str, int] | None:
        """The real socket address a symbolic endpoint is bound/mapped to."""
        return self._real_addr.get(endpoint)

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------
    def bind_udp(self, endpoint: Endpoint, handler: Handler) -> None:
        """Bind a real UDP socket for ``endpoint`` and attach ``handler``."""
        self._info(endpoint.host)
        if endpoint in self._udp:
            raise TransportError(f"UDP endpoint {endpoint} already bound")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.bind((self.bind_ip, self._port_plan.get(endpoint, 0)))
        binding = _UdpBinding(sock=sock, handler=handler)
        self._udp[endpoint] = binding
        self.map_endpoint(endpoint, *sock.getsockname()[:2])
        self.loop().add_reader(sock, self._udp_readable, endpoint, binding)

    def _udp_readable(self, endpoint: Endpoint, binding: _UdpBinding) -> None:
        """Deliver what the socket holds: socket -> bytes -> message -> handler."""
        recvfrom = binding.sock.recvfrom
        for _ in range(_UDP_DRAIN_MAX):
            try:
                data, addr = recvfrom(_UDP_RECV_BYTES)
            except BlockingIOError:
                return  # drained
            except OSError as exc:
                self._note_error(f"udp error on {endpoint}: {exc!r}")
                return
            try:
                message = decode_message(data)
            except CodecError:
                self.datagrams_dropped += 1
                if self.observability is not None:
                    self.observability.emit("udp_garbled", endpoint.host, src=f"{addr[0]}:{addr[1]}")
                continue
            src = self._by_real.get(addr) or Endpoint(*addr)
            self.datagrams_delivered += 1
            if self.observability is not None:
                self.observability.emit(
                    "udp_deliver", endpoint.host, src=src, kind=type(message).__name__
                )
            try:
                binding.handler(message, src)
            except Exception as exc:
                self._note_error(f"udp handler at {endpoint} failed: {exc!r}")
            if self._udp.get(endpoint) is not binding:
                return  # unbound by its own handler: the socket is closed

    def unbind_udp(self, endpoint: Endpoint) -> None:
        """Close the socket behind ``endpoint`` (idempotent)."""
        binding = self._udp.pop(endpoint, None)
        if binding is None:
            return
        real = self._real_addr.pop(endpoint, None)
        if real is not None:
            self._by_real.pop(real, None)
        self.hosts.leave_all(endpoint)
        self.loop().remove_reader(binding.sock)
        binding.sock.close()

    def send_udp(self, src: Endpoint, dst: Endpoint, message: Message) -> None:
        """Fire one real datagram; drops (kernel, addressing, a cut) are counted."""
        payload = encode_message(message)
        self.datagrams_sent += 1
        self.bytes_sent += len(payload)
        if self.hosts.split and not self.reachable(src.host, dst.host):
            self.datagrams_dropped += 1
            if self.observability is not None:
                self.observability.emit("udp_cut", src.host, dst=dst, kind=type(message).__name__)
            return
        real = self._real_addr.get(dst)
        if real is None:
            # Nobody bound/mapped the destination: the datagram vanishes,
            # exactly like a send to a dead host.
            self.datagrams_dropped += 1
            if self.observability is not None:
                self.observability.emit("udp_drop", src.host, dst=dst, kind=type(message).__name__)
            return
        binding = self._udp.get(src)
        sock = binding.sock if binding is not None else self._egress_socket()
        try:
            sock.sendto(payload, real)
        except (BlockingIOError, OSError):
            # Real UDP loss: the kernel refused the datagram.
            self.datagrams_dropped += 1
            if self.observability is not None:
                self.observability.emit("udp_drop", src.host, dst=dst, kind=type(message).__name__)

    def _egress_socket(self) -> socket.socket:
        """Shared send-only socket for sources that never bound."""
        if self._egress is None:
            self._egress = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._egress.setblocking(False)
        return self._egress

    # ------------------------------------------------------------------
    # Multicast (registry-emulated, real unicast datagrams)
    # ------------------------------------------------------------------
    def join_multicast(self, group: str, endpoint: Endpoint) -> None:
        """Subscribe a bound endpoint to ``group``."""
        if endpoint not in self._udp:
            raise TransportError(f"{endpoint} must be UDP-bound before joining multicast")
        self.hosts.join(group, endpoint)

    def multicast(self, src: Endpoint, group: str, message: Message) -> int:
        """Unicast ``message`` to every in-realm member of ``group``."""
        reached = 0
        for member in self.hosts.audience(src, group):
            if member != src:
                self.send_udp(src, member, message)
                reached += 1
        return reached

    # ------------------------------------------------------------------
    # TCP links
    # ------------------------------------------------------------------
    def listen_tcp(self, endpoint: Endpoint, on_accept: Callable[[Link], None]) -> None:
        """Listen for link connections at a symbolic endpoint."""
        self._info(endpoint.host)
        if endpoint in self._listeners:
            raise TransportError(f"TCP endpoint {endpoint} already listening")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.bind_ip, self._port_plan.get(endpoint, 0)))
        sock.listen(64)
        listener = _TcpListener(sock=sock, on_accept=on_accept)
        self._listeners[endpoint] = listener
        self.map_endpoint(endpoint, *sock.getsockname()[:2])
        self._spawn(self._attach_listener(endpoint, listener))

    async def _attach_listener(self, endpoint: Endpoint, listener: _TcpListener) -> None:
        async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            try:
                kind, payload = await self._read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                writer.close()
                return
            except TransportError as exc:
                self._note_error(f"preamble at {endpoint}: {exc}")
                writer.close()
                return
            if kind != _FRAME_PREAMBLE:
                writer.close()
                return
            try:
                host, port_text = payload.decode("utf-8").rsplit(":", 1)
                remote = Endpoint(host, int(port_text))
            except (ValueError, UnicodeDecodeError):
                writer.close()
                return
            conn = AioConnection(self, local=endpoint, remote=remote, writer=writer)
            self.connections_opened += 1
            current = self._listeners.get(endpoint)
            if current is None or current is not listener:
                conn.close()
                return
            listener.on_accept(conn)
            await self._read_loop(conn, reader)

        server = await asyncio.start_server(
            lambda r, w: self._spawn(handle(r, w)), sock=listener.sock
        )
        if self._listeners.get(endpoint) is listener:
            listener.server = server
        else:  # stopped while attaching
            server.close()

    def stop_listening(self, endpoint: Endpoint) -> None:
        """Stop accepting connections at ``endpoint`` (idempotent)."""
        listener = self._listeners.pop(endpoint, None)
        if listener is None:
            return
        real = self._real_addr.pop(endpoint, None)
        if real is not None:
            self._by_real.pop(real, None)
        if listener.server is not None:
            listener.server.close()
        else:
            listener.sock.close()

    def connect_tcp(
        self, src: Endpoint, dst: Endpoint, on_connected: Callable[[Link], None]
    ) -> None:
        """Open a link to a listening symbolic endpoint (async completion)."""
        real = self._real_addr.get(dst)
        if dst not in self._listeners and real is None:
            raise TransportError(f"no TCP listener at {dst}")

        async def run() -> None:
            try:
                reader, writer = await asyncio.open_connection(*real)
            except OSError as exc:
                self._note_error(f"connect {src}->{dst} failed: {exc!r}")
                return
            preamble = f"{src.host}:{src.port}".encode("utf-8")
            writer.write(_FRAME_HEADER.pack(_FRAME_PREAMBLE, len(preamble)) + preamble)
            conn = AioConnection(self, local=src, remote=dst, writer=writer)
            self.connections_opened += 1
            try:
                on_connected(conn)
            except Exception as exc:
                self._note_error(f"on_connected for {src}->{dst} failed: {exc!r}")
            await self._read_loop(conn, reader)

        self._spawn(run())

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> tuple[int, bytes]:
        header = await reader.readexactly(_FRAME_HEADER.size)
        kind, length = _FRAME_HEADER.unpack(header)
        if length > _MAX_FRAME_BYTES:
            # The prefix is the peer's word: refuse it before buffering.
            raise TransportError(f"frame of {length} bytes exceeds {_MAX_FRAME_BYTES}")
        payload = await reader.readexactly(length) if length else b""
        return kind, payload

    async def _read_loop(self, conn: AioConnection, reader: asyncio.StreamReader) -> None:
        try:
            while conn.open:
                kind, payload = await self._read_frame(reader)
                if kind != _FRAME_MESSAGE:
                    continue
                try:
                    message = decode_message(payload)
                except CodecError:
                    self._note_error(f"garbled frame on {conn.local}<-{conn.remote}")
                    continue
                if conn.on_receive is not None:
                    try:
                        conn.on_receive(message, conn.remote)
                    except Exception as exc:
                        self._note_error(f"link handler on {conn.local} failed: {exc!r}")
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except TransportError as exc:
            self._note_error(f"link {conn.local}<-{conn.remote}: {exc}")
            conn.close()
        finally:
            conn._peer_gone()
