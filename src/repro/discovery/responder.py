"""Broker-side discovery: request processing and response generation.

Paper sections 4 and 5.  A :class:`DiscoveryResponder` is attached to a
broker and does four things when a discovery request arrives (over UDP
from a BDN or multicast, or inside a control-topic event from a peer
broker):

1. **Deduplicate** -- the broker "keeps track of the last 1000 broker
   discovery requests so that additional CPU/network cycles are not
   expended on previously processed requests".  The key includes the
   retransmission attempt, so a retransmitted request *is* re-processed
   (that is how the scheme survives lost responses, section 7).
2. **Propagate** -- wrap the request in an event on a predefined topic
   and publish it into the broker network ("the brokers also propagate
   discovery requests on a predefined topic thus guaranteeing that the
   request can reach each broker connected in the network",
   section 10).  Requests that arrived *as* control events are already
   being forwarded by normal event routing, so only UDP arrivals are
   wrapped here -- and only when someone other than this responder
   can hear the flood (see :meth:`DiscoveryResponder._propagate`).
3. **Apply the response policy** -- credentials and origin realm
   (section 5).
4. **Respond over UDP** -- with the NTP timestamp, broker process
   information, and usage metrics (section 5.1), after a small
   simulated processing delay.
"""

from __future__ import annotations

from repro.core.codec import decode_message, encode_message, lazy_decode
from repro.core.config import Endpoint
from repro.core.dedup import DedupCache
from repro.core.errors import CodecError, UnknownHostError
from repro.core.messages import DiscoveryRequest, DiscoveryResponse, Event
from repro.runtime.api import OwnedTimers
from repro.substrate.broker import BROKER_TCP_PORT, BROKER_UDP_PORT, Broker

__all__ = ["REQUEST_TOPIC", "DiscoveryResponder"]

#: The predefined control topic discovery requests propagate on.
REQUEST_TOPIC = "Services/BrokerDiscovery/Request"

# Simulated per-request processing cost at a broker (policy check,
# metric snapshot, response construction on a 2005-era JVM), drawn
# uniformly per request.
_PROCESS_DELAY_RANGE = (0.002, 0.008)


class DiscoveryResponder:
    """Attaches discovery behaviour to one broker.

    Parameters
    ----------
    broker:
        The broker to serve.  The responder installs a UDP handler for
        :class:`DiscoveryRequest` and a control handler for
        :data:`REQUEST_TOPIC`.

    Attributes
    ----------
    requests_processed:
        Distinct (uuid, attempt) requests handled.
    responses_sent:
        Responses actually issued (policy permitting).
    policy_rejections:
        Requests the response policy declined to answer.
    responses_suppressed:
        Responses withheld because the broker's ingress queue was at or
        above ``response_suppress_depth`` when the response came due.
    active:
        Whether the responder is answering requests.  Responders start
        active; :meth:`stop` deactivates (and cancels every pending
        response and the heartbeat), :meth:`start` reactivates.  Both are
        idempotent.
    """

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self.dedup = DedupCache(broker.config.dedup_capacity)
        self.requests_processed = 0
        self.responses_sent = 0
        self.policy_rejections = 0
        self.responses_suppressed = 0
        self.active = True
        #: Draining (see :meth:`drain`): in-flight responses finish,
        #: new requests are ignored, the registration is withdrawn.
        self.draining = False
        #: Withdrawal advertisements sent by the last :meth:`drain`.
        self.withdrawals_sent = 0
        #: Set by :meth:`attach_heartbeat`; its leader is echoed in
        #: responses as ``leader_hint``.
        self.heartbeat = None
        self._response_timers = OwnedTimers(broker.runtime)
        broker.add_udp_handler(DiscoveryRequest, self._on_udp_request)
        self._control_handler = broker.add_control_handler(
            REQUEST_TOPIC, self._on_control_event
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """(Re)activate the responder; idempotent.

        Clears any drain in progress.  A heartbeat detached by
        :meth:`stop` or :meth:`drain` is *not* re-armed here -- call
        :meth:`attach_heartbeat` again with the desired schedule.
        """
        self.active = True
        self.draining = False

    def stop(self) -> None:
        """Deactivate the responder; idempotent.

        After this returns the responder sends nothing: new requests are
        ignored, every not-yet-fired response timer is cancelled, and
        the registration heartbeat is detached.
        """
        if not self.active:
            return
        self.active = False
        self.draining = False
        self._response_timers.cancel_all()
        self.detach_heartbeat()
        self.broker.emit("responder_stop")

    def drain(self, withdraw_endpoints=()) -> None:
        """Begin a graceful drain; idempotent.

        The SIGTERM half of the responder lifecycle: new requests are
        ignored from this call on, but responses already scheduled (the
        paper's per-request processing delay is pending) still fire --
        a client that was promised an answer gets it.  The registration
        heartbeat stops first and a withdrawal advertisement (see
        :func:`~repro.discovery.advertisement.withdraw_registration`)
        goes to every endpoint in ``withdraw_endpoints``, so BDNs stop
        handing out this broker before its lease would have lapsed.

        Callers poll :attr:`pending_responses` for zero, then
        :meth:`stop` and exit.
        """
        if self.draining or not self.active:
            return
        self.draining = True
        self.detach_heartbeat()
        if withdraw_endpoints and self.broker.config.advertise and self.broker.alive:
            from repro.discovery.advertisement import withdraw_registration

            self.withdrawals_sent = withdraw_registration(
                self.broker, tuple(withdraw_endpoints)
            )
        self.broker.emit("responder_drain", pending=len(self._response_timers))

    @property
    def pending_responses(self) -> int:
        """Responses scheduled but not yet sent (the drain barrier)."""
        return len(self._response_timers)

    # ------------------------------------------------------------------
    # Registration heartbeat
    # ------------------------------------------------------------------
    def attach_heartbeat(
        self,
        bdn_endpoints,
        interval: float = 30.0,
        ttl: float | None = None,
        region: str = "",
    ) -> None:
        """Maintain a leased registration with the listed BDNs.

        Starts one heartbeat (see
        :func:`~repro.discovery.advertisement.start_heartbeat` for the
        rule; ``ttl`` defaults to three intervals there) in place of any
        already attached.  It pauses while the broker is dead and
        resumes when it is revived, so a revived broker re-acquires its
        lease within one interval.  Against a replicated group it
        follows the leader named in the group's acks, and that leader
        is echoed as ``leader_hint`` in every discovery response, so
        clients learn where the group's write path lives.
        """
        from repro.discovery.advertisement import start_heartbeat

        self.detach_heartbeat()
        if self.broker.config.advertise:
            self.heartbeat = start_heartbeat(
                self.broker, bdn_endpoints, interval=interval, region=region, ttl=ttl
            )

    def detach_heartbeat(self) -> None:
        """Cancel the registration heartbeat, if one is attached."""
        if self.heartbeat is not None:
            self.heartbeat.cancel()
            self.heartbeat = None

    # ------------------------------------------------------------------
    # Arrival paths
    # ------------------------------------------------------------------
    def _on_udp_request(self, request: DiscoveryRequest, src: Endpoint) -> None:
        """Request arrived over UDP (from a BDN, multicast, or a cached
        target-set retry) -- process it and inject it into the broker
        network for propagation."""
        self._process(request, propagate=True)

    def _on_control_event(self, event: Event, from_peer: str | None) -> None:
        """Request arrived inside a control event from a peer broker.

        Event routing is already forwarding the event onward, so the
        responder must not re-publish it (that would double-propagate).

        This is the hottest decode site in a discovery run -- a flooded
        request reaches every broker's responder -- so unless the
        broker's sink is observing it runs the lazy-decode dedup protocol:
        pull only the ``(uuid, attempt)`` key from the wire buffer,
        consult the LRU, and materialise the full request only on first
        sighting.  Observed worlds take the eager path so recv/dup spans
        carry exactly the same causal order as before.
        """
        if self.broker.observing:
            try:
                message = decode_message(event.payload)
            except CodecError:
                self.broker.emit("discovery_bad_payload", topic=event.topic)
                return
            if isinstance(message, DiscoveryRequest):
                self._process(message, propagate=False)
            return
        try:
            lazy = lazy_decode(event.payload)
        except CodecError:
            self.broker.emit("discovery_bad_payload", topic=event.topic)
            return
        if lazy.tag != DiscoveryRequest.kind:
            return
        if not self.active or self.draining or not self.broker.alive:
            return
        try:
            key = lazy.request_key()
        except CodecError:
            self.broker.emit("discovery_bad_payload", topic=event.topic)
            return
        if self.dedup.seen(key):
            return
        try:
            request = lazy.message
        except CodecError:
            # Structurally sound enough to yield a key, but the body
            # failed validation: forget the key so a clean retransmit of
            # the same (uuid, attempt) is not treated as a duplicate.
            self.dedup.discard(key)
            self.broker.emit("discovery_bad_payload", topic=event.topic)
            return
        self._process(request, propagate=False, _deduped=True)

    # ------------------------------------------------------------------
    # Core processing
    # ------------------------------------------------------------------
    @staticmethod
    def request_key(request: DiscoveryRequest) -> tuple[str, int]:
        """Dedup key: the UUID plus the retransmission attempt.

        Duplicates of one transmission are suppressed; an explicit
        retransmission (attempt+1) is deliberately re-processed so that
        brokers re-respond after response loss.
        """
        return (request.uuid, request.attempt)

    def _process(
        self, request: DiscoveryRequest, propagate: bool, _deduped: bool = False
    ) -> None:
        if not self.active or self.draining or not self.broker.alive:
            return
        traced = request.trace_flag and self.broker.observing
        if traced:
            self.broker.emit(
                "recv",
                request.uuid,
                hop=request.trace_hop,
                kind="DiscoveryRequest",
                via="udp" if propagate else "topic",
            )
        # _deduped: the lazy fast path already consulted the LRU before
        # materialising the request, so don't charge a second lookup.
        if not _deduped and self.dedup.seen(self.request_key(request)):
            if traced:
                self.broker.emit(
                    "dup_suppressed", request.uuid, hop=request.trace_hop, kind="DiscoveryRequest"
                )
            return
        self.requests_processed += 1
        if propagate:
            self._propagate(request)
        realm = self._requester_realm(request)
        if not self.broker.config.response_policy.permits(request.credentials, realm):
            self.policy_rejections += 1
            self.broker.emit("discovery_policy_reject", request=request.uuid)
            return
        delay = float(self.broker.rng.uniform(*_PROCESS_DELAY_RANGE))
        self._response_timers.schedule(delay, self._respond, request)

    def _requester_realm(self, request: DiscoveryRequest) -> str:
        if request.realm:
            return request.realm
        try:
            return self.broker.runtime.realm_of(request.requester_host)
        except UnknownHostError:
            return ""

    def _propagate(self, request: DiscoveryRequest) -> None:
        """Wrap the request in a control event and flood it onward.

        The event UUID is derived from (request UUID, attempt) so that
        event-level dedup at peer brokers aligns with request-level
        dedup here.  With nobody but this responder to hear the flood
        (no peer, subscriber or other handler) only that dedup mark is
        left of it; the responder never hears its own flood.
        """
        event_uuid = f"{request.uuid}#{request.attempt}"
        if not self.broker.has_audience(REQUEST_TOPIC, self._control_handler):
            self.broker.mark_routed(event_uuid)
            return
        forwarded = request.forwarded()
        event = Event(
            uuid=event_uuid,
            topic=REQUEST_TOPIC,
            payload=encode_message(forwarded),
            source=self.broker.name,
            issued_at=self.broker.utc(),
        )
        if request.trace_flag:
            self.broker.emit("inject", request.uuid, hop=forwarded.trace_hop, via="topic")
        self.broker.publish_local(event, self._control_handler)

    def _respond(self, key: int, request: DiscoveryRequest) -> None:
        self._response_timers.pop(key)
        if not self.active or not self.broker.alive:
            return
        suppress_depth = self.broker.config.response_suppress_depth
        if suppress_depth > 0 and self.broker.queue_depth >= suppress_depth:
            # Under load, attracting a new client would make things
            # worse: withhold the response and let an idle broker win
            # the selection instead (the policy "may also dictate that
            # responses be issued only if" conditions hold -- here the
            # condition is headroom).
            self.responses_suppressed += 1
            self.broker.emit(
                "discovery_response_suppressed",
                request.uuid if request.trace_flag else "",
                hop=request.trace_hop,
                broker=self.broker.name,
                depth=self.broker.queue_depth,
            )
            return
        hb = self.heartbeat
        leader_hint = (
            str(hb.leader) if hb is not None and hb.leader is not None else ""
        )
        response = DiscoveryResponse(
            request_uuid=request.uuid,
            broker_id=self.broker.name,
            hostname=self.broker.host,
            transports=(("tcp", BROKER_TCP_PORT), ("udp", BROKER_UDP_PORT)),
            issued_at=self.broker.utc(),
            metrics=self.broker.usage_metrics(),
            trace_flag=request.trace_flag,
            trace_hop=request.trace_hop + 1 if request.trace_flag else 0,
            leader_hint=leader_hint,
        )
        self.broker.send_udp(
            Endpoint(request.requester_host, request.requester_port), response
        )
        self.responses_sent += 1
        self.broker.emit(
            "discovery_response", request.uuid if request.trace_flag else "",
            hop=response.trace_hop, broker=self.broker.name,
        )
