"""Configuration records for every node type.

The paper configures a short list of values:

* whether a broker registers, and which regions a BDN stores
  (section 2.3): ``BrokerConfig.advertise``, ``BDNConfig.interest_regions``;
* the node's list of BDNs (section 3): ``ClientConfig.bdn_endpoints``;
* the broker's 1000-entry duplicate-detection cache (section 4):
  ``BrokerConfig.dedup_capacity``;
* the response policy, credentials and network realms (section 5):
  ``ResponsePolicyConfig``, and a private BDN's
  ``BDNConfig.required_credentials``;
* the client's collection timeout, maximum response count N, target-set
  size and weight factors (section 9): ``ClientConfig.response_timeout``,
  ``.max_responses``, ``.target_set_size`` and ``.weights``.

The other fields tune a mechanism the paper describes without a
configured value (retransmission and the multicast fallback, ping
repeats, BDN injection) or one the reproduction adds (ingress queues,
adaptive retry, BDN replication and shards).  A value nothing outside
the tests sets is a constant in the module that reads it, unless the
``KEPT`` table of ``tests/core/test_config_callers.py`` says why it
stays.  The records are validated eagerly so that a bad experiment setup
fails at construction rather than deep inside a simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.dedup import DEFAULT_CAPACITY
from repro.core.errors import ConfigError
from repro.core.metrics import WeightConfig

__all__ = [
    "Endpoint",
    "ResponsePolicyConfig",
    "ServiceConfig",
    "RetryPolicyConfig",
    "BrokerConfig",
    "BDNConfig",
    "ReplicationConfig",
    "ClientConfig",
]


class Endpoint(NamedTuple):
    """A (host, port) pair identifying one transport endpoint.

    Hosts are symbolic names resolved by the network fabric (e.g.
    ``"complexity.ucs.indiana.edu"``); ports are ordinary integers.
    """

    host: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.host}:{self.port}"


@dataclass(frozen=True, slots=True)
class ResponsePolicyConfig:
    """A broker's policy for answering discovery requests.

    Section 5: *"A broker's response policy may predicate responses
    based on the presentation of appropriate credentials. Furthermore
    the policy may also dictate that responses be issued only if the
    request originated from within a set of pre-defined network
    realms."*

    Attributes
    ----------
    required_credentials:
        Credential identifiers at least one of which must appear in the
        request.  Empty set = no credential requirement.
    allowed_realms:
        Network realms a request may originate from.  ``None`` means
        any realm is acceptable.
    """

    required_credentials: frozenset[str] = frozenset()
    allowed_realms: frozenset[str] | None = None

    def permits(self, credentials: frozenset[str], realm: str) -> bool:
        """Decide whether a request with these attributes gets a response."""
        if self.required_credentials and not (credentials & self.required_credentials):
            return False
        if self.allowed_realms is not None and realm not in self.allowed_realms:
            return False
        return True


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Service-time model for one node's ingress queue.

    With a service config installed, a node no longer processes every
    datagram instantly: arrivals wait in a bounded FIFO, each message
    occupies the (single) server for its class's service time, and
    arrivals finding the queue full are dropped with a
    ``queue_overflow`` trace.  ``None`` (the default everywhere) keeps
    the pre-overload instant-processing behaviour.

    Attributes
    ----------
    queue_capacity:
        Maximum messages in the queue, the one in service included.
    service_time:
        Default seconds of service per message.
    service_times:
        Per-message-class overrides as ``(class name, seconds)`` pairs,
        e.g. ``(("DiscoveryRequest", 0.05),)`` -- discovery requests
        cost dissemination work while pings stay cheap.
    """

    queue_capacity: int = 64
    service_time: float = 0.001
    service_times: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity must be >= 1")
        if self.service_time <= 0:
            raise ConfigError("service_time must be positive")
        for name, seconds in self.service_times:
            if not name:
                raise ConfigError("service_times entries need a class name")
            if seconds <= 0:
                raise ConfigError(f"service time for {name!r} must be positive")

    def time_for(self, message_type: type) -> float:
        """Service seconds for one message of ``message_type``."""
        for name, seconds in self.service_times:
            if name == message_type.__name__:
                return seconds
        return self.service_time


@dataclass(frozen=True, slots=True)
class RetryPolicyConfig:
    """Adaptive retry behaviour of a discovery client.

    ``None`` on :class:`ClientConfig` (the default) keeps the paper's
    fixed retransmit timer; installing a policy replaces it with a
    token-bucket retry *budget*, decorrelated-jitter exponential
    backoff, ``retry_after`` honouring, and a per-BDN circuit breaker.

    Attributes
    ----------
    budget_capacity:
        Token-bucket size: retransmissions/retry passes the client may
        burst before the budget gates it.
    budget_refill_per_sec:
        Tokens regained per second, the sustained retry rate.
    backoff_base:
        Minimum (and initial) backoff delay in seconds.
    backoff_cap:
        Upper bound on any single backoff delay.
    breaker_failures:
        Consecutive failures/busies that trip a BDN's breaker
        closed -> open.
    breaker_cooldown:
        Seconds an open breaker waits before allowing one half-open
        probe.
    """

    budget_capacity: int = 10
    budget_refill_per_sec: float = 1.0
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    breaker_failures: int = 3
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.budget_capacity < 1:
            raise ConfigError("budget_capacity must be >= 1")
        if self.budget_refill_per_sec <= 0:
            raise ConfigError("budget_refill_per_sec must be positive")
        if self.backoff_base <= 0:
            raise ConfigError("backoff_base must be positive")
        if self.backoff_cap < self.backoff_base:
            raise ConfigError("backoff_cap must be >= backoff_base")
        if self.breaker_failures < 1:
            raise ConfigError("breaker_failures must be >= 1")
        if self.breaker_cooldown <= 0:
            raise ConfigError("breaker_cooldown must be positive")


@dataclass(frozen=True, slots=True)
class BrokerConfig:
    """Static configuration of one broker process.

    Attributes
    ----------
    dedup_capacity:
        Size of the UUID duplicate-detection cache (paper default 1000).
    response_policy:
        When/whether to answer discovery requests.
    advertise:
        Whether this broker registers itself with BDNs at startup.  The
        paper stresses that *"not all brokers need to register their
        information with the BDN"*.
    service:
        Optional ingress-queue service model; queue depth feeds the
        usage metrics in discovery responses.  ``None`` = instant
        processing (pre-overload behaviour).
    response_suppress_depth:
        With a service model installed, suppress discovery responses
        while the ingress queue holds at least this many messages --
        the paper's "lossy UDP response is a signal" idea applied
        deliberately (a response the broker cannot back with capacity
        is worse than silence).  ``0`` disables suppression.
    """

    dedup_capacity: int = DEFAULT_CAPACITY
    response_policy: ResponsePolicyConfig = field(default_factory=ResponsePolicyConfig)
    advertise: bool = True
    service: ServiceConfig | None = None
    response_suppress_depth: int = 0

    def __post_init__(self) -> None:
        if self.dedup_capacity < 1:
            raise ConfigError("dedup_capacity must be >= 1")
        if self.response_suppress_depth < 0:
            raise ConfigError("response_suppress_depth must be >= 0")
        if self.response_suppress_depth > 0 and self.service is None:
            raise ConfigError(
                "response_suppress_depth needs a service model (queue depth is "
                "always 0 without one)"
            )


@dataclass(frozen=True, slots=True)
class ReplicationConfig:
    """Membership and timing of a BDN replication group.

    One shared, identical config is handed to every member (each BDN
    finds itself in ``members`` by its node name), which makes
    misconfigured split-brain groups impossible to express.

    Attributes
    ----------
    group:
        Group name; every replication message carries it and members
        ignore traffic for foreign groups.
    members:
        ``(bdn_name, udp_endpoint)`` pairs for every member, in a fixed
        order shared by all members.  The order staggers election
        timeouts (earlier members time out first), which makes leader
        election deterministic under the simulated runtime without
        consuming any randomness.
    lease_duration:
        Leadership lease length in seconds.  Each voter measures it
        from its own grant time; the leader measures it conservatively
        from claim *send* time, so the leader's belief always expires
        no later than any voter's grant.
    heartbeat_interval:
        Seconds between the leader's lease-renewal claims.  Must be
        well under ``lease_duration`` or leadership flaps.
    election_stagger:
        Extra election-timeout seconds per member index.  Member *i*
        waits ``lease_duration + i * election_stagger`` of leader
        silence before claiming, so the surviving member with the
        lowest index usually wins uncontested.
    anti_entropy_interval:
        Seconds between registry-digest exchanges with peers.
    """

    group: str
    members: tuple[tuple[str, Endpoint], ...]
    lease_duration: float = 3.0
    heartbeat_interval: float = 1.0
    election_stagger: float = 0.25
    anti_entropy_interval: float = 2.0

    def __post_init__(self) -> None:
        if not self.group:
            raise ConfigError("replication group name must be non-empty")
        if not self.members:
            raise ConfigError("replication group needs at least one member")
        names = [name for name, _ in self.members]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate member names in replication group: {names}")
        if self.lease_duration <= 0:
            raise ConfigError("lease_duration must be positive")
        if not 0 < self.heartbeat_interval < self.lease_duration:
            raise ConfigError(
                "heartbeat_interval must be positive and below lease_duration "
                f"(got {self.heartbeat_interval} vs {self.lease_duration})"
            )
        if self.election_stagger < 0:
            raise ConfigError("election_stagger must be >= 0")
        if self.anti_entropy_interval <= 0:
            raise ConfigError("anti_entropy_interval must be positive")

    @property
    def quorum_size(self) -> int:
        """Votes (self included) needed to hold the lease and to commit
        a replicated write: a strict majority of ``members``."""
        return len(self.members) // 2 + 1

    @property
    def catchup_grace(self) -> float:
        """After a cold restart a member refuses discovery requests
        (with a leader hint) until an anti-entropy exchange completes
        or this many seconds pass, whichever is first."""
        return 2 * self.anti_entropy_interval

    def index_of(self, name: str) -> int:
        for i, (member, _) in enumerate(self.members):
            if member == name:
                return i
        raise ConfigError(f"{name!r} is not a member of replication group {self.group!r}")

    def endpoint_of(self, name: str) -> Endpoint:
        return self.members[self.index_of(name)][1]

    def peers_of(self, name: str) -> tuple[tuple[str, Endpoint], ...]:
        """Every member except ``name`` (which must be a member)."""
        self.index_of(name)
        return tuple((m, ep) for m, ep in self.members if m != name)


@dataclass(frozen=True, slots=True)
class BDNConfig:
    """Static configuration of one Broker Discovery Node.

    Attributes
    ----------
    injection:
        How the BDN pushes a discovery request into the broker network
        (section 4).  ``"closest_farthest"`` is the paper's scheme:
        inject simultaneously at the closest and farthest brokers,
        by measured ping distance.  ``"single"`` injects at one
        arbitrary connected broker; ``"all"`` fans out to every
        registered broker (the unconnected-topology behaviour, O(N)).
    interest_regions:
        If non-empty, the BDN stores only advertisements whose region
        is listed (section 2.3's "a BDN in the US may be interested
        only in broker additions in North America").
    required_credentials:
        Non-empty for a *private* BDN (section 2.4): requests must carry
        one of these credentials before the BDN disseminates them.
    ping_interval:
        Seconds between the BDN's sweeps: lease eviction, then a ping to
        each broker it measures -- every broker under distance-based
        injection, only the unleased ones under ``"all"``.
    fanout_delay:
        Per-destination marshalling/dispatch cost when the BDN fans a
        request out.  The unconnected topology pays it once per
        registered broker, which is the "O(N) distribution [that]
        would be inefficient" behind Figure 2; calibrated to a
        2005-era JVM dispatch path.
    service:
        Optional ingress-queue service model.  ``None`` = instant
        processing (pre-overload behaviour).
    admission_high_watermark:
        With a service model installed, a discovery request arriving
        while the ingress queue holds at least this many messages is
        *shed*: not queued, not disseminated, answered with a cheap
        :class:`~repro.core.messages.DiscoveryBusy` instead.  ``0``
        disables admission control.
    busy_retry_after:
        The ``retry_after`` hint (seconds) carried by busy replies.
    replication:
        Membership of the BDN's replication group, or ``None`` for the
        paper's island behaviour.  A replicated BDN must find its own
        node name in ``replication.members``.
    shards:
        Number of consistent-hash partitions of the advertisement table
        and duplicate-request cache (see
        :mod:`repro.discovery.sharding`).  1 (default) is the paper's
        single flat table, bit-identical to the unsharded code.  Raise
        it for mega-scale registries (>~10k ads): lease sweeps and
        dedup eviction then operate per shard.
    """

    injection: str = "closest_farthest"
    interest_regions: frozenset[str] = frozenset()
    required_credentials: frozenset[str] = frozenset()
    ping_interval: float = 30.0
    fanout_delay: float = 0.06
    service: ServiceConfig | None = None
    admission_high_watermark: int = 0
    busy_retry_after: float = 1.0
    replication: ReplicationConfig | None = None
    shards: int = 1

    _INJECTIONS = ("closest_farthest", "single", "all")

    def __post_init__(self) -> None:
        if self.injection not in self._INJECTIONS:
            raise ConfigError(
                f"injection must be one of {self._INJECTIONS}, got {self.injection!r}"
            )
        if self.ping_interval <= 0:
            raise ConfigError("ping_interval must be positive")
        if self.fanout_delay <= 0:
            raise ConfigError("fanout_delay must be positive")
        if self.admission_high_watermark < 0:
            raise ConfigError("admission_high_watermark must be >= 0")
        if self.admission_high_watermark > 0 and self.service is None:
            raise ConfigError(
                "admission_high_watermark needs a service model (queue depth is "
                "always 0 without one)"
            )
        if self.busy_retry_after <= 0:
            raise ConfigError("busy_retry_after must be positive")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Static configuration of a discovery client (a joining node).

    Attributes
    ----------
    bdn_endpoints:
        Known BDNs, tried in order (section 3: the node configuration
        file lists gridservicelocator.org/.com/... plus private BDNs).
    response_timeout:
        Seconds the client waits collecting discovery responses before
        deciding (paper: "typically 4-5 seconds", configurable).
    max_responses:
        Stop collecting once this many responses arrive, even if the
        timeout has not expired (section 9's "first N responses").
    target_set_size:
        Size of the shortlisted target set T, ``size(T) <= N``
        (paper: "typically comprises of around 10 brokers",
        "between 5 and 20").
    ping_repeats:
        UDP pings sent per target-set broker; RTTs are averaged
        (section 10: "this PING operation may be repeated multiple
        times to compute the average network Round Trip Time").
    ping_timeout:
        Seconds to wait for ping responses before selecting (hard cap).
    retransmit_interval:
        Seconds of inactivity (no ack, no response) before the request
        is retransmitted (section 7).
    max_retransmits:
        Retransmissions before the client falls back (multicast, cached
        target set) or gives up.
    use_multicast_fallback:
        Whether to multicast the request when no BDN answers
        (section 7).
    weights:
        Factor weights for the target-set scoring formula.
    credentials:
        Credential identifiers presented inside discovery requests.
    min_responses:
        If fewer responses than this arrive inside the timeout, the
        client retransmits rather than deciding on a thin sample.
        At most ``max_responses``, where collection stops.
    require_ping_evidence:
        If True, a run whose ping phase produced *zero* pongs fails
        explicitly instead of falling back to the best-scored
        candidate.  The paper's default (False) optimistically picks
        from the target set; the strict mode is for fault-injection
        runs where "no broker answered a ping" usually means the
        chosen broker would be unreachable anyway.
    retry_policy:
        Optional adaptive-retry policy (token-bucket budget, jittered
        backoff, per-BDN circuit breaker, ``retry_after`` honouring).
        ``None`` keeps the fixed retransmit timer and makes every
        existing trace bit-identical.
    """

    bdn_endpoints: tuple[Endpoint, ...] = ()
    response_timeout: float = 4.5
    max_responses: int = 30
    target_set_size: int = 10
    ping_repeats: int = 2
    ping_timeout: float = 1.5
    retransmit_interval: float = 2.0
    max_retransmits: int = 2
    use_multicast_fallback: bool = True
    weights: WeightConfig = field(default_factory=WeightConfig)
    credentials: frozenset[str] = frozenset()
    min_responses: int = 1
    require_ping_evidence: bool = False
    retry_policy: RetryPolicyConfig | None = None

    def __post_init__(self) -> None:
        if self.response_timeout <= 0:
            raise ConfigError("response_timeout must be positive")
        if self.max_responses < 1:
            raise ConfigError("max_responses must be >= 1")
        if self.target_set_size < 1:
            raise ConfigError("target_set_size must be >= 1")
        if self.target_set_size > self.max_responses:
            raise ConfigError(
                f"target_set_size ({self.target_set_size}) cannot exceed "
                f"max_responses ({self.max_responses})"
            )
        if self.ping_repeats < 1:
            raise ConfigError("ping_repeats must be >= 1")
        if self.ping_timeout <= 0:
            raise ConfigError("ping_timeout must be positive")
        if self.retransmit_interval <= 0:
            raise ConfigError("retransmit_interval must be positive")
        if self.max_retransmits < 0:
            raise ConfigError("max_retransmits must be >= 0")
        if not 1 <= self.min_responses <= self.max_responses:
            raise ConfigError(
                f"min_responses ({self.min_responses}) must be in "
                f"[1, max_responses ({self.max_responses})]"
            )
