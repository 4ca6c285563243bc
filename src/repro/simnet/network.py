"""The network fabric, and the sim runtime: UDP, TCP-like connections, multicast.

A :class:`Network` is the whole :class:`~repro.runtime.api.Runtime` of a
simulated node: the fabric is the transport, the scheduler is its
:class:`~repro.simnet.simulator.Simulator`'s bound methods, and hosts
and multicast groups live in a :class:`~repro.runtime.hosts.Hosts`.

The fabric is the single place where simulated packets acquire delay
(via a :class:`~repro.simnet.latency.LatencyModel`) and may be dropped
(via a :class:`~repro.simnet.loss.LossModel`).  Three services:

* **UDP** (:meth:`Network.send_udp`) -- connectionless, unordered,
  lossy.  Exactly what the paper uses for discovery responses and pings
  so that "the network resources utilized by the requesting node remain
  low and invariant irrespective of the number of responding brokers".
* **TCP** (:meth:`Network.connect_tcp`) -- reliable, FIFO per
  connection, with a one-RTT connection-setup cost and explicit teardown
  -- the cost profile the paper cites when justifying UDP for responses.
* **Multicast** (:meth:`Network.multicast`) -- delivery restricted to
  group members *within the sender's realm*, reproducing the paper's
  observation that "multicast was disabled for network traffic outside
  the lab".

Hosts are registered with a *site* (keys the latency matrix) and a
*realm* (scopes multicast and response policies).  Binding is by
``(host, port)`` endpoint; unbinding one also leaves every multicast
group it joined; handlers receive decoded message objects plus
the source endpoint.

The fabric keeps no fault state of its own: cuts, partitions and loss
storms are open windows in the :class:`~repro.runtime.hosts.Hosts` fault
table (opened and closed by :class:`~repro.discovery.faults.FaultInjector`),
and :meth:`Network.reachable` is the table's.  Across a cut or a
partition datagrams are dropped, connection attempts vanish like a
timed-out SYN, and established connections are closed; on the links an
open loss storm covers, its model is drawn instead of :attr:`Network.loss`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.codec import wire_size
from repro.core.config import Endpoint
from repro.core.errors import TransportError
from repro.core.messages import Message
from repro.runtime.hosts import Hosts
from repro.simnet.latency import LatencyModel, UniformLatencyModel
from repro.simnet.loss import LossModel, NoLoss
from repro.simnet.simulator import Simulator

__all__ = ["Network", "Connection"]

Handler = Callable[[Message, Endpoint], None]

# TCP handshake costs one RTT before data can flow; teardown/garbage-
# collection cost is charged to the *local* node when a short-lived
# connection closes (the paper's argument against TCP responses).
_TCP_SETUP_RTTS = 1.0


@dataclass(slots=True)
class _PathRecord:
    """Precomputed per-(src, dst) delivery state for the datagram hot path.

    One flat record replaces the chain of lookups (host info, the
    fault table, hop count) that :meth:`Network.send_udp` would
    otherwise repeat for every datagram.  Records are dropped wholesale
    on any change to the fault table, which only happens at
    chaos-schedule frequency -- datagrams happen at traffic frequency.

    The fabric's own loss model is deliberately not baked in:
    ``loss_override`` is the injected loss (the link's storm, else the
    fabric-wide one) or None, and the sender resolves ``None`` against
    ``Network.loss`` at send time.
    """

    reachable: bool
    src_site: str
    dst_site: str
    hops: int
    loss_override: LossModel | None


class Connection:
    """One side of an established TCP-like connection.

    Messages sent on a side arrive, in order and without loss, at the
    peer's receive handler.  ``close()`` closes both sides.
    """

    def __init__(self, network: "Network", local: Endpoint, remote: Endpoint) -> None:
        self._network = network
        self.local = local
        self.remote = remote
        self.peer: "Connection | None" = None  # wired by the fabric
        self.on_receive: Handler | None = None
        self.on_close: Callable[[], None] | None = None
        self.open = False
        self._last_arrival = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0

    def send(self, message: Message) -> None:
        """Reliably deliver ``message`` to the peer, preserving order.

        The transfer body is inlined here (rather than delegating to a
        Network method) because broker links call it at six figures per
        second and the extra call frame was measurable on the soak.
        """
        if not self.open or self.peer is None:
            raise TransportError(f"send on closed connection {self.local}->{self.remote}")
        net = self._network
        if message is net._sized_message:
            size = net._sized_bytes
        else:
            size = wire_size(message)
            net._sized_message = message
            net._sized_bytes = size
        self.bytes_sent += size
        self.messages_sent += 1
        net.bytes_sent += size
        local_host = self.local.host
        remote_host = self.remote.host
        path = net._path_cache.get((local_host, remote_host))
        if path is None:
            path = net._path(local_host, remote_host)
        delay = net.latency.delay(path.src_site, path.dst_site, size, net.rng)
        # FIFO: never deliver before the previous message on this side.
        sim = net.sim
        arrival = sim._now + delay
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        else:
            self._last_arrival = arrival
        sim.schedule_fire_at(arrival, net._deliver_tcp, self, message)

    def close(self) -> None:
        """Tear down both sides (idempotent)."""
        if not self.open:
            return
        self.open = False
        peer = self.peer
        if self.on_close is not None:
            self.on_close()
        if peer is not None and peer.open:
            peer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<Connection {self.local}->{self.remote} {state}>"


class Network:
    """The simulated internet connecting every node, and the sim runtime.

    Parameters
    ----------
    sim:
        The event loop.
    latency:
        One-way delay model (defaults to a uniform 10 ms WAN).
    loss:
        Datagram loss model (defaults to lossless; experiments install
        :class:`~repro.simnet.loss.PerHopLoss`).
    rng:
        Randomness source for jitter and loss draws.
    obs:
        Optional :class:`repro.obs.Observability`; receives the fabric's
        plain events (``udp_deliver`` / ``udp_drop`` / ``udp_cut`` /
        ``tcp_severed`` / ``tcp_syn_cut``), named by host.
    """

    kind = "sim"

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        loss: LossModel | None = None,
        rng: np.random.Generator | None = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else UniformLatencyModel()
        self.loss = loss if loss is not None else NoLoss()
        self.rng = rng if rng is not None else np.random.default_rng()
        self.obs = obs
        # Runtime surface, bound straight to its owners (no wrapper frame).
        self.schedule = sim.schedule
        self.schedule_at = sim.schedule_at
        self.call_every = sim.call_every
        self.hosts = hosts = Hosts(on_fault=self._refault)
        self.register_host = hosts.register
        self.site_of = hosts.site_of
        self.realm_of = hosts.realm_of
        self.multicast_enabled = hosts.multicast_enabled
        self.leave_multicast = hosts.leave
        self.multicast_members = hosts.members
        self.reachable = hosts.reachable
        self._info = hosts.info
        self._udp_bindings: dict[Endpoint, Handler] = {}
        self._tcp_listeners: dict[Endpoint, Callable[[Connection], None]] = {}
        self._connections: list[Connection] = []
        # Hot-path cache, dropped wholesale on any fault table change.
        self._path_cache: dict[tuple[str, str], _PathRecord] = {}
        # One-entry wire-size memo: a fan-out sends the *same* message
        # object over many links back to back, so the last (object,
        # size) pair hits almost every time.  Holding one reference is
        # bounded by design (the lru_cache this replaces pinned every
        # message ever sized -- see the codec GC canary test).
        self._sized_message: Message | None = None
        self._sized_bytes = 0
        # Counters.
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_dropped = 0
        self.bytes_sent = 0
        self.connections_opened = 0
        self.connections_severed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim._now

    # ------------------------------------------------------------------
    # Paths and faults
    # ------------------------------------------------------------------
    def _path(self, src_host: str, dst_host: str) -> _PathRecord:
        """The (possibly cached) flat delivery record for one host pair."""
        key = (src_host, dst_host)
        record = self._path_cache.get(key)
        if record is not None:
            return record
        hosts = self.hosts
        src_site = self._info(src_host).site
        dst_site = self._info(dst_host).site
        loss = hosts.storm_loss(hosts.link(src_host, dst_host))
        record = _PathRecord(
            reachable=hosts.reachable(src_host, dst_host),
            src_site=src_site,
            dst_site=dst_site,
            hops=self.latency.hops(src_site, dst_site),
            loss_override=loss if loss is not None else hosts.storm_loss(None),
        )
        self._path_cache[key] = record
        return record

    def _refault(self) -> None:
        """The fault table changed: drop every path record and close the
        established connections that now cross a cut."""
        self._path_cache.clear()
        self._sever_unreachable()

    def _sever_unreachable(self) -> None:
        """Close established connections that now cross a cut."""
        still_open: list[Connection] = []
        for conn in self._connections:
            if not conn.open:
                continue
            if not self.reachable(conn.local.host, conn.remote.host):
                self.connections_severed += 1
                if self.obs is not None:
                    self.obs.emit(
                        "tcp_severed", conn.local.host, dst=conn.remote.host
                    )
                conn.close()
                continue
            still_open.append(conn)
        self._connections = still_open

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------
    def bind_udp(self, endpoint: Endpoint, handler: Handler) -> None:
        """Attach ``handler`` to datagrams arriving at ``endpoint``."""
        self._info(endpoint.host)
        if endpoint in self._udp_bindings:
            raise TransportError(f"UDP endpoint {endpoint} already bound")
        self._udp_bindings[endpoint] = handler

    def unbind_udp(self, endpoint: Endpoint) -> None:
        """Detach the handler at ``endpoint`` and leave its groups (idempotent)."""
        self._udp_bindings.pop(endpoint, None)
        self.hosts.leave_all(endpoint)

    def send_udp(self, src: Endpoint, dst: Endpoint, message: Message) -> None:
        """Fire-and-forget datagram; may be silently lost in transit.

        A datagram to an unbound destination is charged and counted but
        vanishes -- just like the real network.
        """
        if message is self._sized_message:
            size = self._sized_bytes
        else:
            size = wire_size(message)
            self._sized_message = message
            self._sized_bytes = size
        self.datagrams_sent += 1
        self.bytes_sent += size
        # Inlined hot-path cache probe: _path() does the same lookup,
        # but the call frame itself is measurable at fabric rates.
        path = self._path_cache.get((src.host, dst.host))
        if path is None:
            path = self._path(src.host, dst.host)
        if not path.reachable:
            self._cut(message, src, dst)
            return
        loss = path.loss_override if path.loss_override is not None else self.loss
        if loss.lost(path.hops, self.rng):
            self.datagrams_dropped += 1
            if self.obs is not None:
                self.obs.emit("udp_drop", src.host, dst=dst, kind=type(message).__name__)
            return
        delay = self.latency.delay(path.src_site, path.dst_site, size, self.rng)
        # Deliveries are never cancelled: the no-handle fast path skips
        # the ScheduledEvent allocation on the hottest schedule in a run.
        self.sim.schedule_fire(delay, self._deliver_udp, message, src, dst)

    def _cut(self, message: Message, src: Endpoint, dst: Endpoint) -> None:
        self.datagrams_dropped += 1
        if self.obs is not None:
            self.obs.emit("udp_cut", src.host, dst=dst, kind=type(message).__name__)

    def _deliver_udp(self, message: Message, src: Endpoint, dst: Endpoint) -> None:
        path = self._path_cache.get((src.host, dst.host))
        if path is None:
            path = self._path(src.host, dst.host)
        if not path.reachable:
            self._cut(message, src, dst)  # a cut landed while it was in flight
            return
        handler = self._udp_bindings.get(dst)
        if handler is None:
            self.datagrams_dropped += 1
            return
        self.datagrams_delivered += 1
        if self.obs is not None:
            self.obs.emit(
                "udp_deliver", dst.host, src=src, kind=type(message).__name__
            )
        handler(message, src)

    # ------------------------------------------------------------------
    # Multicast
    # ------------------------------------------------------------------
    def join_multicast(self, group: str, endpoint: Endpoint) -> None:
        """Subscribe ``endpoint`` to ``group`` (requires UDP binding).

        Hosts registered with ``multicast_enabled=False`` are refused,
        modelling the paper's "multicast service is disabled for a
        particular set of brokers".
        """
        if endpoint not in self._udp_bindings:
            raise TransportError(f"{endpoint} must be UDP-bound before joining multicast")
        self.hosts.join(group, endpoint)

    def multicast(self, src: Endpoint, group: str, message: Message) -> int:
        """Send ``message`` to every group member in the sender's realm.

        Returns the number of members the datagram was addressed to
        (delivery is still subject to loss).  Members outside the
        sender's realm never see it: WAN multicast is administratively
        disabled, as in the paper's testbed.
        """
        reached = 0
        for member in self.hosts.audience(src, group):
            if member != src:
                self.send_udp(src, member, message)
                reached += 1
        return reached

    # ------------------------------------------------------------------
    # TCP
    # ------------------------------------------------------------------
    def listen_tcp(self, endpoint: Endpoint, on_accept: Callable[[Connection], None]) -> None:
        """Accept incoming connections at ``endpoint``."""
        self._info(endpoint.host)
        if endpoint in self._tcp_listeners:
            raise TransportError(f"TCP endpoint {endpoint} already listening")
        self._tcp_listeners[endpoint] = on_accept

    def stop_listening(self, endpoint: Endpoint) -> None:
        """Stop accepting connections at ``endpoint`` (idempotent)."""
        self._tcp_listeners.pop(endpoint, None)

    def connect_tcp(
        self,
        src: Endpoint,
        dst: Endpoint,
        on_connected: Callable[[Connection], None],
    ) -> None:
        """Open a connection; ``on_connected`` fires after the handshake.

        Raises immediately if nobody listens at ``dst`` (a real SYN
        would time out; failing fast surfaces configuration errors).
        An attempt across a cut link or partition is silently dropped
        instead -- the SYN vanishes exactly like a real one would, and
        ``on_connected`` never fires.
        """
        if dst not in self._tcp_listeners:
            raise TransportError(f"no TCP listener at {dst}")
        path = self._path(src.host, dst.host)
        if not path.reachable:
            if self.obs is not None:
                self.obs.emit("tcp_syn_cut", src.host, dst=dst)
            return
        one_way = self.latency.delay(path.src_site, path.dst_site, 64, self.rng)
        setup = 2.0 * one_way * _TCP_SETUP_RTTS

        def establish() -> None:
            acceptor = self._tcp_listeners.get(dst)
            if acceptor is None:
                return  # listener went away during the handshake
            if not self.reachable(src.host, dst.host):
                return  # cut landed mid-handshake
            local = Connection(self, src, dst)
            remote = Connection(self, dst, src)
            local.peer, remote.peer = remote, local
            local.open = remote.open = True
            self.connections_opened += 1
            self._connections.append(local)
            acceptor(remote)
            on_connected(local)

        self.sim.schedule(setup, establish)

    def _deliver_tcp(self, side: Connection, message: Message) -> None:
        peer = side.peer
        if peer is None or not peer.open:
            return  # connection torn down while the message was in flight
        path = self._path_cache.get((side.local.host, side.remote.host))
        if path is None:
            path = self._path(side.local.host, side.remote.host)
        if not path.reachable:
            return  # cut landed while the segment was in flight
        if peer.on_receive is not None:
            peer.on_receive(message, side.local)
