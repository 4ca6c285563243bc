"""The broker: the unit process of the messaging infrastructure.

A broker:

* accepts **client connections** (TCP) carrying subscribe/unsubscribe
  and published events;
* maintains **links** to other brokers (TCP) over which events are
  disseminated according to a pluggable routing strategy;
* answers **UDP datagrams** -- pings natively, discovery requests via
  handlers installed by :mod:`repro.discovery`;
* keeps the paper's **duplicate-detection cache** of recently routed
  UUIDs (section 4, default 1000 entries) so that "additional
  CPU/network cycles are not expended on previously processed requests";
* reports **usage metrics** (connections, links, memory, CPU) that end
  up inside its discovery responses (section 5.1).

Ports follow a NaradaBrokering-ish convention: one TCP port for
clients, one for broker links, one UDP port for datagrams.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.codec import decode_message
from repro.core.config import BrokerConfig, Endpoint
from repro.core.dedup import DedupCache
from repro.core.errors import CodecError, TransportError
from repro.core.messages import (
    Ack,
    Event,
    Message,
    PingRequest,
    PingResponse,
    Subscribe,
    Unsubscribe,
)
from repro.core.metrics import UsageMetrics
from repro.obs import Observability, trace_context
from repro.runtime.api import Link, Runtime
from repro.simnet.node import Node
from repro.simnet.service import IngressQueue
from repro.substrate.routing import FloodRouting, RoutingStrategy
from repro.substrate.subscriptions import SubscriptionManager
from repro.substrate.topics import topic_matches, validate_pattern

__all__ = [
    "Broker",
    "BROKER_TCP_PORT",
    "BROKER_UDP_PORT",
    "BROKER_LINK_PORT",
    "DISCOVERY_GROUP",
    "LINK_RETRY_INTERVAL",
]

BROKER_TCP_PORT = 5045  # client connections
BROKER_UDP_PORT = 5046  # pings, discovery datagrams, multicast
BROKER_LINK_PORT = 5047  # broker-to-broker links

#: The section 7 multicast group: every broker on a multicast-enabled
#: host joins it, and a requester with no BDN left sends to it.
DISCOVERY_GROUP = "Services/BrokerDiscovery"

#: Seconds between attempts to re-establish a lost *persistent* link
#: (section 7 assumes the broker network heals after failures).
LINK_RETRY_INTERVAL = 5.0

# Memory/CPU model behind the section 9 usage metrics: the process owns
# _MEM_TOTAL bytes and idles at _CPU_BASE load; clients and links add.
_MEM_TOTAL = 512 * 1024 * 1024
_CPU_BASE = 0.02
_MEM_BASE = 40 * 1024 * 1024
_MEM_PER_CLIENT = 2 * 1024 * 1024
_MEM_PER_LINK = 4 * 1024 * 1024
_CPU_PER_CLIENT = 0.004
_CPU_PER_LINK = 0.002

# Topics memoised in Broker._handlers_for before a wholesale reset.
_HANDLERS_CACHE_MAX = 2048

ControlHandler = Callable[[Event, "str | None"], None]
UdpHandler = Callable[[Message, Endpoint], None]


class Broker(Node):
    """One broker process.

    Parameters
    ----------
    name:
        Unique broker identifier (also its routing address).
    host:
        Hostname; registered with the transport if new.
    network, rng:
        Runtime (or simulated fabric) and node-private randomness.
    config:
        Static broker configuration.
    site, realm, multicast_enabled, obs:
        Forwarded to :class:`~repro.simnet.node.Node`.
    """

    def __init__(
        self,
        name: str,
        host: str,
        network: Runtime | object,
        rng: np.random.Generator,
        config: BrokerConfig | None = None,
        site: str | None = None,
        realm: str | None = None,
        multicast_enabled: bool = True,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(
            name,
            host,
            network,
            rng,
            site=site,
            realm=realm,
            multicast_enabled=multicast_enabled,
            obs=obs,
        )
        self.config = config if config is not None else BrokerConfig()
        self.subscriptions = SubscriptionManager()
        self.local_interests: set[str] = set()
        self.dedup = DedupCache(self.config.dedup_capacity)
        # Routing-decision caches.  Peer sets change only on link
        # fault/heal, so the per-(from_peer) forwarding target list is
        # memoised between topology changes.
        self._peers_cache: frozenset[str] | None = None
        self._targets_cache: dict[str | None, tuple[int, tuple[str, ...]]] = {}
        self.routing = FloodRouting()
        self._links: dict[str, Link] = {}
        self._clients: dict[str, Link] = {}
        self._neighbors: dict[str, "Broker"] = {}
        self._retry_pending: set[str] = set()
        self._control_handlers: list[tuple[str, ControlHandler]] = []
        # topic -> handlers whose pattern matches it, in registration
        # order; reset whenever a handler is added.
        self._handlers_cache: dict[str, tuple[ControlHandler, ...]] = {}
        self._udp_handlers: dict[type, UdpHandler] = {}
        # Optional service-time model for the UDP plane: datagrams wait
        # in a bounded FIFO and are processed at service rate instead of
        # instantly.  Built once so counters span restarts; None (the
        # default) keeps the instant-processing behaviour.
        self.ingress: IngressQueue | None = None
        if self.config.service is not None:
            self.ingress = IngressQueue(
                self.runtime,
                self._on_udp,
                self.config.service,
                owner=self,
            )
        self.alive = False
        # Counters.
        self.events_routed = 0
        self.events_delivered = 0
        self.events_forwarded = 0
        self.duplicates_suppressed = 0
        self.links_lost = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def udp_endpoint(self) -> Endpoint:
        """Where this broker receives datagrams."""
        return self.endpoint(BROKER_UDP_PORT)

    @property
    def client_endpoint(self) -> Endpoint:
        """Where clients connect."""
        return self.endpoint(BROKER_TCP_PORT)

    @property
    def link_endpoint(self) -> Endpoint:
        """Where peer brokers connect links."""
        return self.endpoint(BROKER_LINK_PORT)

    def start(self) -> None:
        """Bind ports, start listening, join multicast, kick off NTP."""
        if self.started:
            return
        super().start()
        self.alive = True
        udp_handler = self.ingress.deliver if self.ingress is not None else self._on_udp
        self.runtime.bind_udp(self.udp_endpoint, udp_handler)
        self.runtime.listen_tcp(self.client_endpoint, self._accept_client)
        self.runtime.listen_tcp(self.link_endpoint, self._accept_link)
        if self.runtime.multicast_enabled(self.host):
            self.runtime.join_multicast(DISCOVERY_GROUP, self.udp_endpoint)
        # A revived broker re-establishes its persistent neighbourhood.
        for peer_id in sorted(self._neighbors):
            if peer_id not in self._links:
                self._schedule_link_retry(peer_id)
        self.emit("broker_start")

    def stop(self) -> None:
        """Crash/shutdown: drop every connection and unbind (idempotent).

        Used by churn experiments; a stopped broker neither routes nor
        responds, and its peers see their links close.
        """
        if not self.alive:
            return
        self.alive = self._started = False  # start() brings it back
        self.runtime.unbind_udp(self.udp_endpoint)
        if self.ingress is not None:
            self.ingress.reset()  # a crashed process loses its socket buffer
        self.runtime.stop_listening(self.client_endpoint)
        self.runtime.stop_listening(self.link_endpoint)
        if self.runtime.multicast_enabled(self.host):
            self.runtime.leave_multicast(DISCOVERY_GROUP, self.udp_endpoint)
        for conn in list(self._links.values()):
            conn.close()
        for conn in list(self._clients.values()):
            conn.close()
        self._links.clear()
        self._clients.clear()
        self._invalidate_link_caches()
        self.emit("broker_stop")

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------
    def add_udp_handler(self, message_type: type, handler: UdpHandler) -> None:
        """Route incoming datagrams of ``message_type`` to ``handler``.

        The discovery responder installs its request handler this way.
        """
        if message_type in self._udp_handlers:
            raise ValueError(f"UDP handler for {message_type.__name__} already installed")
        self._udp_handlers[message_type] = handler

    def remove_udp_handler(self, message_type: type) -> None:
        """Undo :meth:`add_udp_handler`; idempotent."""
        self._udp_handlers.pop(message_type, None)

    def send_udp(self, dst: Endpoint, message: Message) -> None:
        """Send one datagram from this broker's UDP endpoint."""
        self.runtime.send_udp(self.udp_endpoint, dst, message)

    def _on_udp(self, message: Message, src: Endpoint) -> None:
        if not self.alive:
            return
        handler = self._udp_handlers.get(type(message))
        if handler is not None:
            handler(message, src)
            return
        if isinstance(message, PingRequest):
            # Built-in ping echo: reply to the address inside the ping so
            # NATed requesters still work, echoing the sender timestamp.
            # Trace context is echoed too (hop bumped) so the requester's
            # pong span shows the round trip crossed this broker.
            reply = PingResponse(
                uuid=message.uuid,
                sent_at=message.sent_at,
                broker_id=self.name,
                trace_flag=message.trace_flag,
                trace_hop=message.trace_hop + 1 if message.trace_flag else 0,
            )
            self.send_udp(Endpoint(message.reply_host, message.reply_port), reply)

    # ------------------------------------------------------------------
    # Broker links
    # ------------------------------------------------------------------
    @property
    def routing(self) -> RoutingStrategy:
        """The installed routing strategy."""
        return self._routing

    @routing.setter
    def routing(self, strategy: RoutingStrategy) -> None:
        self._routing = strategy
        # Resolve the optional strategy hooks once per installation
        # instead of via getattr on every routed event/message.
        self._targets_for_topic = getattr(strategy, "targets_for_topic", None)
        self._on_link_interest = getattr(strategy, "on_link_interest", None)
        self._targets_cache.clear()

    @property
    def peers(self) -> frozenset[str]:
        """Ids of brokers this broker holds live links to."""
        peers = self._peers_cache
        if peers is None:
            peers = self._peers_cache = frozenset(self._links)
        return peers

    def _invalidate_link_caches(self) -> None:
        """A link came up or went down: recompute peers and targets."""
        self._peers_cache = None
        self._targets_cache.clear()

    def _forward_targets(self, from_peer: str | None) -> tuple[str, ...]:
        """Sorted forwarding targets, memoised per ``from_peer``.

        The cache key is the arrival link; entries are invalidated when
        the link set changes (fault/heal/accept/close) or the strategy
        is replaced, and revalidated against the strategy's ``version``
        counter so in-place mutations (``SpanningTreeRouting.add_edge``)
        are picked up too.
        """
        version = getattr(self._routing, "version", 0)
        cached = self._targets_cache.get(from_peer)
        if cached is None or cached[0] != version:
            targets = tuple(sorted(self._routing.targets(self.name, self.peers, from_peer)))
            self._targets_cache[from_peer] = cached = (version, targets)
        return cached[1]

    @property
    def link_count(self) -> int:
        """Number of live broker links."""
        return len(self._links)

    def link_to(
        self,
        other: "Broker",
        on_ready: Callable[[], None] | None = None,
        persistent: bool = False,
    ) -> None:
        """Open a link to ``other`` (async; completes after the TCP handshake).

        The initiator introduces itself with a hello message so the
        acceptor can index the link by broker id.  With
        ``persistent=True`` the broker remembers ``other`` as a
        configured neighbour and keeps retrying (every
        ``LINK_RETRY_INTERVAL`` seconds) whenever the link dies
        or fails to come up -- the broker network heals itself after
        partitions and peer restarts.
        """
        if other.name == self.name:
            raise ValueError("a broker cannot link to itself")
        if persistent:
            self._neighbors[other.name] = other
        if other.name in self._links:
            return

        def connected(conn: Link) -> None:
            if other.name in self._links or not self.alive:
                # A concurrent accept (or our own death) won the race.
                conn.close()
                return
            conn.on_receive = lambda msg, src: self._on_link_message(other.name, msg)
            conn.on_close = lambda: self._on_link_closed(other.name)
            self._links[other.name] = conn
            self._invalidate_link_caches()
            conn.send(Ack(uuid=self.ids(), acked_by=self.name))
            self.emit("link_up", peer=other.name)
            if on_ready is not None:
                on_ready()

        try:
            self.runtime.connect_tcp(self.link_endpoint, other.link_endpoint, connected)
        except TransportError:
            # Peer not listening (dead).  A persistent neighbour gets a
            # retry loop; a one-shot link propagates the failure.
            if not persistent:
                raise
            self._schedule_link_retry(other.name)
            return
        if persistent:
            # A SYN swallowed by a partition never calls back; the
            # retry probe is a no-op if the link is up by then.
            self._schedule_link_retry(other.name)

    def _accept_link(self, conn: Link) -> None:
        # The peer's first message is its hello; register the link then.
        def first_message(msg: Message, src: Endpoint) -> None:
            if not isinstance(msg, Ack):
                conn.close()
                return
            peer_id = msg.acked_by
            conn.on_receive = lambda m, s: self._on_link_message(peer_id, m)
            conn.on_close = lambda: self._on_link_closed(peer_id)
            self._links[peer_id] = conn
            self._invalidate_link_caches()
            self.emit("link_accepted", peer=peer_id)

        conn.on_receive = first_message

    def _on_link_closed(self, peer_id: str) -> None:
        self._links.pop(peer_id, None)
        self._invalidate_link_caches()
        self.emit("link_down", peer=peer_id)
        if self.alive:
            self.links_lost += 1
            if peer_id in self._neighbors:
                self._schedule_link_retry(peer_id)

    def _schedule_link_retry(self, peer_id: str) -> None:
        """Arm one retry probe for a persistent neighbour (at most one
        outstanding per peer)."""
        if peer_id in self._retry_pending:
            return
        self._retry_pending.add(peer_id)
        self.runtime.schedule(LINK_RETRY_INTERVAL, self._retry_link, peer_id)

    def _retry_link(self, peer_id: str) -> None:
        self._retry_pending.discard(peer_id)
        if not self.alive or peer_id in self._links:
            return
        other = self._neighbors.get(peer_id)
        if other is None:
            return
        self.emit("link_retry", peer=peer_id)
        self.link_to(other, persistent=True)

    def _on_link_message(self, peer_id: str, message: Message) -> None:
        if not self.alive:
            return
        if isinstance(message, Event):
            self._route(message, from_peer=peer_id)
        elif isinstance(message, (Subscribe, Unsubscribe)):
            # Link-level interest propagation: a content-aware routing
            # strategy (if installed) digests and forwards it.
            if self._on_link_interest is not None:
                self._on_link_interest(self, peer_id, message)

    def send_to_peer(self, peer_id: str, message: Message) -> bool:
        """Send an arbitrary message over one broker link.

        Used by routing strategies for link-level control traffic
        (interest propagation).  Returns False if no live link exists.
        """
        conn = self._links.get(peer_id)
        if conn is None or not conn.open:
            return False
        conn.send(message)
        return True

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    @property
    def client_count(self) -> int:
        """Active concurrent client connections."""
        return len(self._clients)

    def _accept_client(self, conn: Link) -> None:
        state = {"client_id": None}

        def on_message(msg: Message, src: Endpoint) -> None:
            if not self.alive:
                return
            if isinstance(msg, Subscribe):
                self._register_client(state, msg.subscriber, conn)
                had = self.subscriptions.has_pattern(msg.topic)
                if self.subscriptions.subscribe(msg.topic, msg.subscriber) and not had:
                    self._notify_local_interest(msg.topic, added=True)
            elif isinstance(msg, Unsubscribe):
                self._register_client(state, msg.subscriber, conn)
                if self.subscriptions.unsubscribe(msg.topic, msg.subscriber):
                    if not self.subscriptions.has_pattern(msg.topic):
                        self._notify_local_interest(msg.topic, added=False)
            elif isinstance(msg, Event):
                self._register_client(state, msg.source, conn)
                self._route(msg, from_peer=None)
            elif isinstance(msg, Ack):
                # A bare hello registers the client without subscribing.
                self._register_client(state, msg.acked_by, conn)

        def on_close() -> None:
            client_id = state["client_id"]
            if client_id is not None:
                self._clients.pop(client_id, None)
                removed = self.subscriptions.drop_subscriber(client_id)
                for pattern in removed:
                    if not self.subscriptions.has_pattern(pattern):
                        self._notify_local_interest(pattern, added=False)
                self.emit("client_gone", client=client_id)

        conn.on_receive = on_message
        conn.on_close = on_close

    def _register_client(self, state: dict, client_id: str, conn: Link) -> None:
        if state["client_id"] is None:
            state["client_id"] = client_id
            self._clients[client_id] = conn
            self.emit("client_registered", client=client_id)

    def _notify_local_interest(self, pattern: str, added: bool) -> None:
        """Tell a content-aware routing strategy about a local
        subscription appearing (first holder) or vanishing (last).

        A withdrawal is suppressed while the broker itself still needs
        the pattern (a service interest registered via
        :meth:`add_local_interest`)."""
        if not added and pattern in self.local_interests:
            return
        hook = getattr(self.routing, "on_local_interest", None)
        if hook is not None:
            hook(self, pattern, added)

    def add_local_interest(self, pattern: str) -> None:
        """Declare that this broker itself needs events on ``pattern``.

        Broker-co-located services (e.g. the reliable-delivery archive)
        consume events via control handlers rather than subscriptions;
        under subscription-aware routing they must declare interest or
        the network will prune the events before they arrive.  The
        interest persists for the broker's lifetime.
        """
        validate_pattern(pattern)
        if pattern in self.local_interests:
            return
        already_visible = self.subscriptions.has_pattern(pattern)
        self.local_interests.add(pattern)
        if not already_visible:
            self._notify_local_interest(pattern, added=True)

    def interest_patterns(self) -> frozenset[str]:
        """Patterns this broker needs: subscriptions plus service interests."""
        return self.subscriptions.local_patterns() | frozenset(self.local_interests)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def add_control_handler(self, pattern: str, handler: ControlHandler) -> ControlHandler:
        """Invoke ``handler(event, from_peer)`` for events matching ``pattern``.

        Control handlers fire *after* dedup, exactly once per event, on
        every broker the event reaches -- the mechanism the discovery
        scheme uses to process requests propagated "on a predefined
        topic".  Returns ``handler``: what a service that also publishes
        on ``pattern`` names as its ``publisher`` so it is not called
        back with its own events.
        """
        validate_pattern(pattern)
        self._control_handlers.append((pattern, handler))
        self._handlers_cache.clear()
        return handler

    def _handlers_for(self, topic: str) -> tuple[ControlHandler, ...]:
        """Control handlers matching ``topic``, memoised per topic."""
        handlers = self._handlers_cache.get(topic)
        if handlers is None:
            if len(self._handlers_cache) >= _HANDLERS_CACHE_MAX:
                self._handlers_cache.clear()
            handlers = self._handlers_cache[topic] = tuple(
                h for pattern, h in self._control_handlers if topic_matches(pattern, topic)
            )
        return handlers

    def has_audience(self, topic: str, publisher: ControlHandler | None = None) -> bool:
        """Would :meth:`publish_local` on ``topic`` reach anyone but ``publisher``?

        The audience is subscribed clients, matching control handlers
        and the forwarding targets of a local publication, each read
        from the memo routing itself uses (so each is current whenever
        routing is).  Errs towards True: a subscriber or peer whose
        connection has closed still counts until it is dropped.
        """
        if self.subscriptions.sorted_subscribers_for(topic):
            return True
        for handler in self._handlers_for(topic):
            if handler != publisher:
                return True
        if self._targets_for_topic is not None:
            return bool(self._targets_for_topic(self.name, self.peers, None, topic))
        return bool(self._forward_targets(None))

    def publish_local(self, event: Event, publisher: ControlHandler | None = None) -> None:
        """Inject an event as if published at this broker.

        ``publisher``, if given, is the control handler of the service
        publishing: it is not called back with its own event.
        """
        self._route(event, None, publisher)

    def mark_routed(self, event_uuid: str) -> bool:
        """Event-level dedup and its counters; True on first sighting.

        All of routing that is left for a local publication with no
        audience (see :meth:`has_audience`): the mark stops a peer that
        links up later from re-flooding the event here.
        """
        if self.dedup.seen(event_uuid):
            self.duplicates_suppressed += 1
            return False
        self.events_routed += 1
        return True

    def _route(
        self, event: Event, from_peer: str | None, publisher: ControlHandler | None = None
    ) -> None:
        if not self.mark_routed(event.uuid):
            if self.observing:
                self._span_event_dup(event, from_peer)
            return
        # Local delivery to matching client subscribers (cached per
        # topic; identical to sorted(subscribers_for(topic))).
        for subscriber in self.subscriptions.sorted_subscribers_for(event.topic):
            conn = self._clients.get(subscriber)
            if conn is not None and conn.open:
                conn.send(event)
                self.events_delivered += 1
        # Control-plane handlers (discovery, advertisements, ...).
        for handler in self._handlers_for(event.topic):
            if handler != publisher:
                handler(event, from_peer)
        # Forward into the broker network.  Content-aware strategies
        # narrow the target set by the event's topic (their interest
        # tables mutate with every subscription, so only the static
        # per-(from_peer) strategies go through the memoised path).
        if self._targets_for_topic is not None:
            targets: tuple[str, ...] | list[str] = sorted(
                self._targets_for_topic(self.name, self.peers, from_peer, event.topic)
            )
        else:
            targets = self._forward_targets(from_peer)
        for peer in targets:
            conn = self._links.get(peer)
            if conn is not None and conn.open:
                conn.send(event)
                self.events_forwarded += 1

    def _span_event_dup(self, event: Event, from_peer: str | None) -> None:
        """Flight-record an event-level duplicate suppression.

        Only called while observing, and only emits for events
        whose payload decodes to a trace-flagged message (the discovery
        request flood); everything else is skipped silently.
        """
        payload = event.payload
        # A trace-flagged message always ends in the 3-byte trace
        # trailer (marker 0x54 + hop), so screen on the tail byte before
        # paying for a decode.  False positives (a body that happens to
        # end in 0x54) just fall through to the trace_context check.
        if len(payload) < 6 or payload[-3] != 0x54:
            return
        try:
            message = decode_message(payload)
        except CodecError:
            return
        ctx = trace_context(message)
        if ctx is None:
            return
        self.emit(
            "dup_suppressed",
            ctx[0],
            hop=ctx[1],
            kind=type(message).__name__,
            topic=event.topic,
            via=from_peer or "local",
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def usage_metrics(self) -> UsageMetrics:
        """Snapshot of this broker's load for discovery responses."""
        used = _MEM_BASE + _MEM_PER_CLIENT * self.client_count + _MEM_PER_LINK * self.link_count
        free = max(0, _MEM_TOTAL - used)
        cpu = min(
            0.99,
            _CPU_BASE + _CPU_PER_CLIENT * self.client_count + _CPU_PER_LINK * self.link_count,
        )
        return UsageMetrics(
            free_memory=free,
            total_memory=_MEM_TOTAL,
            num_links=self.link_count,
            num_connections=self.client_count,
            cpu_load=cpu,
            queue_depth=self.ingress.depth if self.ingress is not None else 0,
        )

    @property
    def queue_depth(self) -> int:
        """Current ingress-queue depth (0 without a service model)."""
        return self.ingress.depth if self.ingress is not None else 0
