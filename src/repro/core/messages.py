"""Wire messages of the substrate and the discovery protocol.

Each message type mirrors a structure the paper describes:

* :class:`Event` -- the pub/sub unit routed by the broker network.
* :class:`BrokerAdvertisement` -- what a broker registers with a BDN
  (section 2.2: hostname, transports + ports, logical address, optional
  geography/institution).
* :class:`DiscoveryRequest` -- issued by a joining node (section 3:
  hostname, ports, transports, credentials, and a UUID that uniquely
  identifies the request).
* :class:`DiscoveryResponse` -- a broker's answer (section 5.1: NTP
  timestamp, broker process information, usage metrics).
* :class:`PingRequest` / :class:`PingResponse` -- the UDP ping pair used
  to refine delay estimates over the target set (section 6).
* :class:`Ack` -- BDN's timely acknowledgement of a request (section 3).
* :class:`DiscoveryBusy` -- a BDN's overload signal carrying a
  ``retry_after`` hint (the overload-protection layer on top of the
  paper's load-aware selection metrics).

No message changes once built: a forwarded or re-stamped copy (hop
counts, retransmission attempts, trace context) is a new object, made by
:meth:`DiscoveryRequest.forwarded` or :func:`dataclasses.replace`, which
keeps the simulator free of aliasing bugs when one message object fans
out to many recipients.

The classes are plain ``@dataclass(slots=True)``, not ``frozen=True``.
A frozen dataclass sets every field through ``object.__setattr__``,
which made a message about three times dearer to build (a
``PingRequest`` by keyword: 1.40 us frozen, 0.52 us plain, on a 2-core
Xeon), and a discovery round builds dozens of them, at least one per
decode.  What ``frozen`` enforced at run time an AST rule enforces
before it
(``tests/test_record_rules.py``): no field of a message -- nor of
:class:`~repro.core.metrics.UsageMetrics` or the requester's
``Candidate`` / ``CachedTarget`` -- is stored, augmented or deleted on
anything but ``self``, and nothing calls ``setattr`` or
``object.__setattr__``.  Without ``frozen`` a message is not hashable,
so none keys a dict or a set.

Trace context
-------------
The discovery-path messages (request/response/busy, ping/pong, and
advertisements) carry two optional observability fields: ``trace_flag``
marks the message as participating in a distributed trace (the request
UUID doubles as the trace id) and ``trace_hop`` counts engine hops.
Both default to off and are encoded as an *optional trailer* by the
codec: an untraced message is byte-identical to one from a build that
predates the fields, which is what keeps the golden trace digests (and
the byte-length-driven simulated transmission delays) unchanged when
observability is disabled.  Use :func:`traced` to flag a message.

Replication
-----------
When BDNs form a replication group (:mod:`repro.discovery.replication`)
five additional message types appear on the wire: :class:`LeaseClaim` /
:class:`LeaseVote` for lease-based leader election, :class:`ReplicaAppend`
/ :class:`ReplicaAck` for log-style registry replication, and
:class:`AntiEntropyDigest` / :class:`AntiEntropyDelta` for the periodic
repair pass.  :class:`AdvertisementAck` re-homes broker heartbeats to the
current leader.  None of these are ever emitted by an unreplicated BDN,
and ``DiscoveryBusy`` / ``DiscoveryResponse`` encode their
``leader_hint`` as an optional trailer (like trace context), so worlds
with replication off stay byte-identical to the pre-replication format.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.core.metrics import UsageMetrics

__all__ = [
    "Message",
    "Event",
    "Ack",
    "BrokerAdvertisement",
    "DiscoveryRequest",
    "DiscoveryResponse",
    "DiscoveryBusy",
    "Subscribe",
    "Unsubscribe",
    "PingRequest",
    "PingResponse",
    "LeaseClaim",
    "LeaseVote",
    "ReplicaAppend",
    "ReplicaAck",
    "AntiEntropyDigest",
    "AntiEntropyDelta",
    "AdvertisementAck",
    "traced",
    "WIRE_MESSAGE_TYPES",
    "MESSAGE_TYPE_BY_TAG",
]


@dataclass(slots=True)
class Message:
    """Base class for every wire message.

    ``kind`` is a one-byte type tag used by the codec; subclasses set it
    as a class variable.
    """

    kind: ClassVar[int] = 0


@dataclass(slots=True)
class Event(Message):
    """A pub/sub event routed through the broker network.

    Attributes
    ----------
    uuid:
        Unique event identifier; brokers deduplicate floods on it.
    topic:
        ``/``-separated topic string, e.g.
        ``"Services/BrokerDiscoveryNodes/BrokerAdvertisement"``.
    payload:
        Opaque application bytes.
    source:
        Identifier of the publishing entity.
    issued_at:
        Publisher's (NTP-corrected) UTC timestamp in seconds.
    headers:
        Small string->string metadata map.
    """

    kind: ClassVar[int] = 1

    uuid: str
    topic: str
    payload: bytes
    source: str
    issued_at: float
    headers: tuple[tuple[str, str], ...] = ()

    def header(self, key: str, default: str | None = None) -> str | None:
        """Look up a header value by key."""
        for k, v in self.headers:
            if k == key:
                return v
        return default


@dataclass(slots=True)
class Ack(Message):
    """Acknowledgement of a request, keyed by the request's UUID."""

    kind: ClassVar[int] = 2

    uuid: str
    acked_by: str


@dataclass(slots=True)
class BrokerAdvertisement(Message):
    """A broker's self-registration with a BDN (paper section 2.2).

    Attributes
    ----------
    broker_id:
        Stable identifier of the broker process.
    hostname:
        Host the broker runs on.
    transports:
        (protocol, port) pairs, e.g. ``(("tcp", 5045), ("udp", 5046))``.
    logical_address:
        The broker's NaradaBrokering logical address within the broker
        network hierarchy.
    region:
        Optional geographical region (e.g. ``"north-america"``); BDNs
        with interest filters match on it.
    institution:
        Optional institutional affiliation.
    issued_at:
        Broker's UTC timestamp at advertisement time.
    ttl:
        Lease duration in seconds, measured by the BDN from receipt.
        A broker that keeps re-advertising on a heartbeat renews the
        lease; one that dies (or is partitioned away) silently lets it
        lapse and the BDN evicts the stale entry.  ``0`` means no lease
        (the registration never expires), the pre-lease behaviour.
        Negative or non-finite values are rejected at construction (and
        therefore on decode): a malformed lease must fail loudly, not
        register an immortal or instantly-dead entry.
    """

    kind: ClassVar[int] = 3

    broker_id: str
    hostname: str
    transports: tuple[tuple[str, int], ...]
    logical_address: str
    region: str = ""
    institution: str = ""
    issued_at: float = 0.0
    ttl: float = 0.0
    trace_flag: bool = False
    trace_hop: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.ttl) or self.ttl < 0:
            raise ValueError(f"ttl must be finite and non-negative, got {self.ttl}")

    def port_for(self, protocol: str) -> int | None:
        """Return the advertised port for ``protocol``, if any."""
        for proto, port in self.transports:
            if proto == protocol:
                return port
        return None


@dataclass(slots=True)
class DiscoveryRequest(Message):
    """A request for the nearest available broker (paper section 3).

    Attributes
    ----------
    uuid:
        Unique request identifier; brokers deduplicate on it and
        responses echo it.
    requester_host / requester_port:
        Where UDP discovery responses should be sent.
    transports:
        Transport protocols the requester can speak.
    credentials:
        Credential identifiers for authorised access (may be empty).
    realm:
        Network realm the request originates from; response policies
        may filter on it.
    issued_at:
        Requester's UTC timestamp when the request was (first) issued.
    hop_count:
        Broker-to-broker hops this copy of the request has traversed;
        incremented on every forward.
    attempt:
        Retransmission counter (0 for the first transmission).  Kept
        out of the dedup key: retransmissions of the same UUID are
        idempotent at brokers by design.
    """

    kind: ClassVar[int] = 4

    uuid: str
    requester_host: str
    requester_port: int
    transports: tuple[str, ...] = ("tcp", "udp")
    credentials: frozenset[str] = frozenset()
    realm: str = ""
    issued_at: float = 0.0
    hop_count: int = 0
    attempt: int = 0
    trace_flag: bool = False
    trace_hop: int = 0

    def forwarded(self) -> "DiscoveryRequest":
        """Copy of this request with the hop count incremented.

        A traced copy also advances its trace hop, so flight-recorder
        spans downstream can tell fan-out tiers apart.
        """
        trace_hop = self.trace_hop + 1 if self.trace_flag else self.trace_hop
        return self._copy(self.hop_count + 1, self.attempt, trace_hop)

    def retransmission(self) -> "DiscoveryRequest":
        """Copy of this request marked as the next retransmission attempt."""
        return self._copy(self.hop_count, self.attempt + 1, self.trace_hop)

    def _copy(self, hop_count: int, attempt: int, trace_hop: int) -> "DiscoveryRequest":
        # Not dataclasses.replace: twice the cost, three copies per discovery.
        return DiscoveryRequest(
            self.uuid, self.requester_host, self.requester_port, self.transports,
            self.credentials, self.realm, self.issued_at, hop_count, attempt,
            self.trace_flag, trace_hop,
        )


@dataclass(slots=True)
class DiscoveryResponse(Message):
    """A broker's answer to a discovery request (paper section 5.1).

    Attributes
    ----------
    request_uuid:
        UUID of the request being answered.
    broker_id:
        Responding broker's identifier.
    hostname:
        Responding broker's host.
    transports:
        (protocol, port) pairs the broker accepts connections on.
    issued_at:
        Broker's NTP-corrected UTC timestamp at response time; the
        requester subtracts it from its own clock to estimate the
        one-way network delay.
    metrics:
        The broker's usage metrics snapshot.
    leader_hint:
        ``"host:port"`` of the BDN-group leader this broker currently
        heartbeats to, or ``""`` when the broker registers with an
        unreplicated BDN.  Encoded as an optional trailer: an empty
        hint adds no bytes, keeping unreplicated worlds bit-identical.
    """

    kind: ClassVar[int] = 5

    request_uuid: str
    broker_id: str
    hostname: str
    transports: tuple[tuple[str, int], ...]
    issued_at: float
    metrics: UsageMetrics
    trace_flag: bool = False
    trace_hop: int = 0
    leader_hint: str = ""

    def port_for(self, protocol: str) -> int | None:
        """Return the advertised port for ``protocol``, if any."""
        for proto, port in self.transports:
            if proto == protocol:
                return port
        return None


@dataclass(slots=True)
class DiscoveryBusy(Message):
    """A BDN's overload signal: the request was shed, try again later.

    Sent instead of an :class:`Ack` when admission control refuses a
    :class:`DiscoveryRequest` because the BDN's ingress queue sits at or
    above its high watermark.  Deliberately cheap to produce -- it is
    the one message an overloaded BDN can still afford.

    Attributes
    ----------
    request_uuid:
        UUID of the refused request.
    bdn:
        Name of the refusing BDN.
    retry_after:
        Hint, in seconds, for how long the requester should wait before
        re-sending to this BDN.
    queue_depth:
        The BDN's ingress queue depth at refusal time (observability;
        lets requesters and experiments see *how* overloaded it was).
    leader_hint:
        ``"host:port"`` of the replication-group leader the requester
        should try instead, or ``""``.  A replicated BDN that is still
        catching up after a cold restart refuses requests with this
        hint set so clients jump straight to a serving member.  Encoded
        as an optional trailer (no bytes when empty).
    """

    kind: ClassVar[int] = 10

    request_uuid: str
    bdn: str
    retry_after: float
    queue_depth: int = 0
    trace_flag: bool = False
    trace_hop: int = 0
    leader_hint: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.retry_after) or self.retry_after < 0:
            raise ValueError(
                f"retry_after must be finite and non-negative, got {self.retry_after}"
            )
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be non-negative, got {self.queue_depth}")


@dataclass(slots=True)
class Subscribe(Message):
    """A client's registration of interest in a topic (pub/sub core).

    ``topic`` may contain wildcards: ``*`` matches exactly one ``/``
    segment, ``**`` (only as the final segment) matches any suffix.
    """

    kind: ClassVar[int] = 8

    uuid: str
    topic: str
    subscriber: str


@dataclass(slots=True)
class Unsubscribe(Message):
    """Withdraws a prior :class:`Subscribe` with the same topic/subscriber."""

    kind: ClassVar[int] = 9

    uuid: str
    topic: str
    subscriber: str


@dataclass(slots=True)
class PingRequest(Message):
    """UDP ping carrying the sender's timestamp (paper section 6).

    The delay is computed at the requester by subtracting the echoed
    ``sent_at`` from its clock on response receipt, so the *requester's*
    clock is the only one involved -- pings measure true RTT without NTP
    error, which is exactly why the paper uses them for the final
    selection step.
    """

    kind: ClassVar[int] = 6

    uuid: str
    sent_at: float
    reply_host: str
    reply_port: int
    trace_flag: bool = False
    trace_hop: int = 0


@dataclass(slots=True)
class PingResponse(Message):
    """Echo of a :class:`PingRequest` from a broker."""

    kind: ClassVar[int] = 7

    uuid: str
    sent_at: float
    broker_id: str
    trace_flag: bool = False
    trace_hop: int = 0


@dataclass(slots=True)
class LeaseClaim(Message):
    """A candidate's (or leader's) request for a leadership lease.

    Lease-based election: the candidate asks every group member to
    grant it exclusive leadership of ``group`` for ``duration`` seconds.
    A member grants at most one candidate per window, so any two
    quorums intersect and two leaders can never hold overlapping valid
    leases.  The established leader re-sends the same claim (same
    ``term``) on its heartbeat interval to renew the lease.

    Attributes
    ----------
    group:
        Replication-group name.
    candidate:
        Name of the claiming BDN.
    term:
        Monotonically increasing election term.
    duration:
        Requested lease length in seconds, measured by each voter from
        its own receipt time (receipt-relative, like advertisement
        leases, so clock skew cannot stretch a lease).
    sent_at:
        Candidate's clock when the claim was sent.  Votes echo it; the
        candidate derives its conservative lease expiry from the send
        time, never from vote arrival times.
    """

    kind: ClassVar[int] = 11

    group: str
    candidate: str
    term: int
    duration: float
    sent_at: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.term <= 0xFFFFFFFF:
            raise ValueError(f"term must fit in u32, got {self.term}")
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        if not math.isfinite(self.sent_at):
            raise ValueError(f"sent_at must be finite, got {self.sent_at}")


@dataclass(slots=True)
class LeaseVote(Message):
    """A member's answer to a :class:`LeaseClaim`.

    Attributes
    ----------
    group / voter / term:
        Identify the vote.
    granted:
        Whether the voter granted the lease.  ``False`` means another
        candidate already holds this voter's grant for an overlapping
        window (or the claim's term is stale).
    claim_sent_at:
        Echo of the claim's ``sent_at``, letting the candidate compute
        its lease expiry from the time the quorum's grants were
        *requested*, which is strictly earlier than when any voter
        granted them.
    leader_hint:
        ``"host:port"`` of the leader the voter currently recognises
        (useful to a stale candidate), or ``""``.
    """

    kind: ClassVar[int] = 12

    group: str
    voter: str
    term: int
    granted: bool
    claim_sent_at: float = 0.0
    leader_hint: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.term <= 0xFFFFFFFF:
            raise ValueError(f"term must fit in u32, got {self.term}")
        if not math.isfinite(self.claim_sent_at):
            raise ValueError(f"claim_sent_at must be finite, got {self.claim_sent_at}")


@dataclass(slots=True)
class ReplicaAppend(Message):
    """Leader-to-follower replication of one advertisement-table write.

    The embedded advertisement is re-issued with a *receipt-relative*
    ``ttl`` (the lease seconds remaining at the leader when the append
    was sent), so the follower books the same lease window on its own
    clock -- the same skew-proofing the broker->BDN path uses.

    Attributes
    ----------
    group / leader / term:
        Provenance; followers drop appends from stale terms.
    seq:
        Leader-assigned log sequence number, strictly increasing per
        term.  Followers detect gaps and trigger an immediate
        anti-entropy pull when one appears.
    ad:
        The replicated :class:`BrokerAdvertisement` (trace context, if
        any, is not carried across replication).
    """

    kind: ClassVar[int] = 13

    group: str
    leader: str
    term: int
    seq: int
    ad: BrokerAdvertisement

    def __post_init__(self) -> None:
        if not 0 <= self.term <= 0xFFFFFFFF:
            raise ValueError(f"term must fit in u32, got {self.term}")
        if not 0 <= self.seq <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError(f"seq must fit in u64, got {self.seq}")


@dataclass(slots=True)
class ReplicaAck(Message):
    """Follower's acknowledgement of a :class:`ReplicaAppend`.

    The leader counts distinct acking members per ``seq``; a write is
    *committed* once a quorum (leader included) has applied it.
    """

    kind: ClassVar[int] = 14

    group: str
    member: str
    term: int
    seq: int

    def __post_init__(self) -> None:
        if not 0 <= self.term <= 0xFFFFFFFF:
            raise ValueError(f"term must fit in u32, got {self.term}")
        if not 0 <= self.seq <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError(f"seq must fit in u64, got {self.seq}")


@dataclass(slots=True)
class AntiEntropyDigest(Message):
    """A member's registry summary, sent on the repair interval.

    Attributes
    ----------
    entries:
        ``(broker_id, issued_at)`` pairs, one per live registration:
        the stamp the broker put on the renewal the sender holds, which
        names that renewal on every member.  Expired entries are never
        shipped.  A stamp is read off the broker's clock, which may be
        negative, or step back once, before its NTP sync, so stamps are
        compared for equality only.  The receiver answers with an
        :class:`AntiEntropyDelta` of every ad it holds that the digest
        lacks, or names another renewal of, once its own copy is an
        anti-entropy period old.
    """

    kind: ClassVar[int] = 15

    group: str
    member: str
    entries: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        for broker_id, issued_at in self.entries:
            if not math.isfinite(issued_at):
                raise ValueError(
                    f"digest stamp must be finite, got {issued_at} for {broker_id!r}"
                )


@dataclass(slots=True)
class AntiEntropyDelta(Message):
    """Repair payload answering an :class:`AntiEntropyDigest`.

    Each advertisement is re-issued with a receipt-relative ``ttl``
    (seconds remaining at the sender), exactly like
    :class:`ReplicaAppend`.
    """

    kind: ClassVar[int] = 16

    group: str
    member: str
    ads: tuple[BrokerAdvertisement, ...] = ()


@dataclass(slots=True)
class AdvertisementAck(Message):
    """A replicated BDN's acknowledgement of a direct advertisement.

    Carries the group leader's endpoint so broker heartbeats re-home to
    the leader after a takeover instead of renewing their lease with a
    deposed member.  Unreplicated BDNs never send this message.
    """

    kind: ClassVar[int] = 17

    broker_id: str
    bdn: str
    leader_hint: str = ""


#: Every concrete wire message type, in tag order.  The codec keys its
#: encoder/decoder/sizer tables on these tags; the fuzz suite iterates
#: this registry so a newly added message type is covered automatically.
WIRE_MESSAGE_TYPES: tuple[type[Message], ...] = (
    Event,
    Ack,
    BrokerAdvertisement,
    DiscoveryRequest,
    DiscoveryResponse,
    PingRequest,
    PingResponse,
    Subscribe,
    Unsubscribe,
    DiscoveryBusy,
    LeaseClaim,
    LeaseVote,
    ReplicaAppend,
    ReplicaAck,
    AntiEntropyDigest,
    AntiEntropyDelta,
    AdvertisementAck,
)

#: Wire type tag -> message class (tags 1-17; 0 is the abstract base).
MESSAGE_TYPE_BY_TAG: dict[int, type[Message]] = {
    cls.kind: cls for cls in WIRE_MESSAGE_TYPES
}
assert len(MESSAGE_TYPE_BY_TAG) == len(WIRE_MESSAGE_TYPES), "duplicate wire tag"


def traced(message: Message, hop: int | None = None) -> Message:
    """Copy of ``message`` marked as participating in a trace.

    ``hop`` overrides the hop counter (e.g. a response echoes the
    request's hop plus one); omitted, the current value is kept.
    """
    if not hasattr(message, "trace_flag"):
        raise TypeError(f"{type(message).__name__} does not carry trace context")
    if hop is None:
        return replace(message, trace_flag=True)
    return replace(message, trace_flag=True, trace_hop=hop)
