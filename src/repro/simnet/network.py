"""The network fabric: hosts, UDP, TCP-like connections, multicast.

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
``(host, port)`` endpoint; handlers receive decoded message objects plus
the source endpoint.

The fabric also carries **fault state** (exercised by
:class:`~repro.discovery.faults.FaultInjector` and the chaos harness):

* **link cuts** (:meth:`Network.fail_link` / :meth:`Network.heal_link`)
  -- a bidirectional host-pair cut: datagrams are dropped, connection
  attempts vanish like a timed-out SYN, and established connections
  crossing the cut are closed;
* **partitions** (:meth:`Network.partition` / :meth:`Network.heal_partition`)
  -- the host set is split into reachability groups and every path
  across the cut behaves as a failed link;
* **per-link loss overrides** (:meth:`Network.set_link_loss`) -- a loss
  model applying to one host pair, layered over the global model (see
  :class:`~repro.simnet.loss.CompositeLoss` for additive layering).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.codec import wire_size
from repro.core.config import Endpoint
from repro.core.errors import TransportError, UnknownHostError
from repro.core.messages import Message
from repro.simnet.latency import LatencyModel, UniformLatencyModel
from repro.simnet.loss import LossModel, NoLoss
from repro.simnet.simulator import Simulator

__all__ = ["Network", "Datagram", "Connection"]

Handler = Callable[[Message, Endpoint], None]

# TCP handshake costs one RTT before data can flow; teardown/garbage-
# collection cost is charged to the *local* node when a short-lived
# connection closes (the paper's argument against TCP responses).
_TCP_SETUP_RTTS = 1.0


@dataclass(frozen=True, slots=True)
class Datagram:
    """A UDP datagram in flight.

    Kept as a public value type for callers that want to model one; the
    network's own delivery path passes the fields as plain scheduler
    arguments instead of allocating a record per datagram.
    """

    message: Message
    src: Endpoint
    dst: Endpoint
    size: int


@dataclass(frozen=True, slots=True)
class _HostInfo:
    site: str
    realm: str
    multicast_enabled: bool


@dataclass(slots=True)
class _PathRecord:
    """Precomputed per-(src, dst) delivery state for the datagram hot path.

    One flat record replaces the chain of dict resolutions (host info,
    link key, failed-link set, partition map, per-link loss override,
    hop count) that :meth:`Network.send_udp` would otherwise repeat for
    every datagram.  Records are invalidated wholesale on any fault or
    topology change, which only happens at chaos-schedule frequency --
    datagrams happen at traffic frequency.

    The *global* loss model is deliberately not baked in:
    ``loss_override`` is the per-link override or None, and the sender
    resolves ``None`` against ``Network.loss`` at send time, so loss
    storms that swap the global model keep working unchanged.
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
    """The simulated internet connecting every node.

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
        self._hosts: dict[str, _HostInfo] = {}
        self._udp_bindings: dict[Endpoint, Handler] = {}
        self._tcp_listeners: dict[Endpoint, Callable[[Connection], None]] = {}
        self._multicast_groups: dict[str, set[Endpoint]] = {}
        # Fault state: cut host pairs, the active partition (host ->
        # group id; hosts absent from every group share the implicit
        # ``None`` group), and per-link loss-model overrides.
        self._failed_links: set[tuple[str, str]] = set()
        self._partition: dict[str, int] | None = None
        self._link_loss: dict[tuple[str, str], LossModel] = {}
        self._connections: list[Connection] = []
        # Hot-path caches, dropped wholesale on any fault, topology or
        # membership change.
        self._path_cache: dict[tuple[str, str], _PathRecord] = {}
        self._mcast_cache: dict[tuple[str, str], tuple[Endpoint, ...]] = {}
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
        self.datagrams_cut = 0
        self.bytes_sent = 0
        self.connections_opened = 0
        self.connections_severed = 0

    # ------------------------------------------------------------------
    # Host registry
    # ------------------------------------------------------------------
    def register_host(
        self,
        host: str,
        site: str,
        realm: str | None = None,
        multicast_enabled: bool = True,
    ) -> None:
        """Attach ``host`` to ``site`` (latency) and ``realm`` (multicast scope).

        ``realm`` defaults to the site name, which models one multicast
        domain per institution.
        """
        if host in self._hosts:
            raise TransportError(f"host {host!r} already registered")
        self._hosts[host] = _HostInfo(
            site=site, realm=realm if realm is not None else site, multicast_enabled=multicast_enabled
        )

    def site_of(self, host: str) -> str:
        """Site a host belongs to (raises for unknown hosts)."""
        return self._info(host).site

    def realm_of(self, host: str) -> str:
        """Multicast/security realm a host belongs to."""
        return self._info(host).realm

    def multicast_enabled(self, host: str) -> bool:
        """Whether ``host`` may use multicast at all."""
        return self._info(host).multicast_enabled

    def _info(self, host: str) -> _HostInfo:
        info = self._hosts.get(host)
        if info is None:
            raise UnknownHostError(f"unknown host {host!r}")
        return info

    # ------------------------------------------------------------------
    # Link faults and partitions
    # ------------------------------------------------------------------
    def _link_key(self, host_a: str, host_b: str) -> tuple[str, str]:
        self._info(host_a)
        self._info(host_b)
        return (host_a, host_b) if host_a <= host_b else (host_b, host_a)

    def invalidate_path_cache(self) -> None:
        """Drop every precomputed path record.

        Called internally on any fault or topology change; call it
        manually after swapping :attr:`latency` for a different model
        mid-run (nothing in the repo does, but the cache bakes in hop
        counts, so a swap without invalidation would go stale).
        """
        self._path_cache.clear()

    def _path(self, src_host: str, dst_host: str) -> _PathRecord:
        """The (possibly cached) flat delivery record for one host pair."""
        key = (src_host, dst_host)
        record = self._path_cache.get(key)
        if record is not None:
            return record
        link_key = self._link_key(src_host, dst_host)
        src_site = self._info(src_host).site
        dst_site = self._info(dst_host).site
        reachable = True
        if src_host != dst_host:
            if link_key in self._failed_links:
                reachable = False
            elif self._partition is not None and self._partition.get(
                src_host
            ) != self._partition.get(dst_host):
                reachable = False
        record = _PathRecord(
            reachable=reachable,
            src_site=src_site,
            dst_site=dst_site,
            hops=self.latency.hops(src_site, dst_site),
            loss_override=self._link_loss.get(link_key),
        )
        self._path_cache[key] = record
        return record

    def fail_link(self, host_a: str, host_b: str) -> None:
        """Cut the bidirectional path between two hosts.

        Datagrams between them are dropped, new connection attempts
        vanish (a SYN into a black hole), and established connections
        crossing the cut are closed immediately -- which is what peers
        of a partitioned broker observe as link death.
        """
        self._failed_links.add(self._link_key(host_a, host_b))
        self.invalidate_path_cache()
        self._sever_unreachable()

    def heal_link(self, host_a: str, host_b: str) -> None:
        """Restore a previously cut host pair (idempotent)."""
        self._failed_links.discard(self._link_key(host_a, host_b))
        self.invalidate_path_cache()

    def failed_links(self) -> frozenset[tuple[str, str]]:
        """Currently cut host pairs (normalised order)."""
        return frozenset(self._failed_links)

    def partition(self, *groups) -> None:
        """Split the fabric into reachability groups.

        Each ``group`` is an iterable of hostnames.  Hosts in different
        groups cannot exchange datagrams or connections; hosts absent
        from every group form one implicit extra group (they can still
        talk to each other, but not across the cut).  A new partition
        replaces the previous one.  Established connections across the
        cut are closed.
        """
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for host in group:
                self._info(host)
                if host in mapping:
                    raise TransportError(f"host {host!r} appears in multiple partition groups")
                mapping[host] = index
        self._partition = mapping
        self.invalidate_path_cache()
        self._sever_unreachable()

    def heal_partition(self) -> None:
        """Remove the active partition (idempotent; link cuts persist)."""
        self._partition = None
        self.invalidate_path_cache()

    @property
    def partitioned(self) -> bool:
        """Whether a partition is currently in force."""
        return self._partition is not None

    def reachable(self, host_a: str, host_b: str) -> bool:
        """Whether the fabric will currently carry traffic between two hosts.

        False across a cut link or a partition boundary; loss models are
        probabilistic and do not affect reachability.
        """
        return self._path(host_a, host_b).reachable

    def set_link_loss(self, host_a: str, host_b: str, model: LossModel) -> None:
        """Install ``model`` as the loss model for one host pair.

        The override replaces the global model for that link only; wrap
        the global model and the override in a
        :class:`~repro.simnet.loss.CompositeLoss` to layer them instead.
        """
        self._link_loss[self._link_key(host_a, host_b)] = model
        self.invalidate_path_cache()

    def clear_link_loss(self, host_a: str, host_b: str) -> None:
        """Remove a per-link loss override (idempotent)."""
        self._link_loss.pop(self._link_key(host_a, host_b), None)
        self.invalidate_path_cache()

    def link_loss(self, host_a: str, host_b: str) -> LossModel | None:
        """The loss override for a host pair, if any."""
        return self._link_loss.get(self._link_key(host_a, host_b))

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
        """Detach the handler at ``endpoint`` (idempotent)."""
        self._udp_bindings.pop(endpoint, None)

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
            self.datagrams_dropped += 1
            self.datagrams_cut += 1
            if self.obs is not None:
                self.obs.emit("udp_cut", src.host, dst=dst, kind=type(message).__name__)
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

    def _deliver_udp(self, message: Message, src: Endpoint, dst: Endpoint) -> None:
        path = self._path_cache.get((src.host, dst.host))
        if path is None:
            path = self._path(src.host, dst.host)
        if not path.reachable:
            # A cut landed while the datagram was in flight.
            self.datagrams_dropped += 1
            self.datagrams_cut += 1
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
        if not self._info(endpoint.host).multicast_enabled:
            raise TransportError(f"multicast disabled on host {endpoint.host!r}")
        self._multicast_groups.setdefault(group, set()).add(endpoint)
        self._mcast_cache.clear()

    def leave_multicast(self, group: str, endpoint: Endpoint) -> None:
        """Unsubscribe ``endpoint`` from ``group`` (idempotent)."""
        members = self._multicast_groups.get(group)
        if members is not None:
            members.discard(endpoint)
        self._mcast_cache.clear()

    def multicast_members(self, group: str) -> frozenset[Endpoint]:
        """Current members of ``group`` (all realms)."""
        return frozenset(self._multicast_groups.get(group, ()))

    def multicast(self, src: Endpoint, group: str, message: Message) -> int:
        """Send ``message`` to every group member in the sender's realm.

        Returns the number of members the datagram was addressed to
        (delivery is still subject to loss).  Members outside the
        sender's realm never see it: WAN multicast is administratively
        disabled, as in the paper's testbed.
        """
        if not self._info(src.host).multicast_enabled:
            raise TransportError(f"multicast disabled on host {src.host!r}")
        realm = self.realm_of(src.host)
        members = self._in_realm_members(group, realm)
        reached = 0
        for member in members:
            if member == src:
                continue
            self.send_udp(src, member, message)
            reached += 1
        return reached

    def _in_realm_members(self, group: str, realm: str) -> tuple[Endpoint, ...]:
        """Sorted group members within ``realm``.

        The whole fan-out is resolved once per (group, realm) and
        reused for every subsequent multicast -- membership and realms
        change only on join/leave, not per datagram.
        """
        key = (group, realm)
        members = self._mcast_cache.get(key)
        if members is None:
            members = tuple(
                m
                for m in sorted(self._multicast_groups.get(group, ()))
                if self._info(m.host).realm == realm
            )
            self._mcast_cache[key] = members
        return members

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
