"""The discovery client: issuing requests and selecting a broker.

The requesting node of paper sections 3, 6, 7 and 9, as an event-driven
state machine with one method per event.  A run's state *is* its open
:class:`~repro.discovery.phases.PhaseTimer` phase -- ``run.state`` holds
one of ``PHASE_NAMES``, ``None`` once the run has closed -- so the
sub-activity figures, the ``phase`` spans and every guard below read
the same five names:

``issue_request``
    The request is out (to a BDN, over multicast, or to the cached
    target set) and nothing has come back.  An ``Ack``, or the first
    ``DiscoveryResponse`` standing in for a lost one, moves the run to
    ``wait_initial_responses``; under a retry policy a ``DiscoveryBusy``
    from the BDN just asked walks the ladder.  Every transmission
    restarts two timers, ``window`` (``response_timeout``) and
    ``silence`` (``retransmit_interval``); whichever finds nothing
    collected walks the ladder.  While a retry policy has the run sit
    out a backoff, ``retry`` stands in for both.
``wait_initial_responses``
    Responses are gathered, duplicates suppressed, until
    ``max_responses`` have arrived or ``window`` closes (section 9's two
    knobs); then ``process_responses``.  The ack disarmed ``silence``.
    A window that closes empty walks the ladder from here; one that
    closes under ``min_responses`` retransmits once and reopens.
``process_responses``
    Section 6's shortlist.  Nothing is accepted (a response is *late*
    from here on); a run-scoped timer models the CPU cost, then
    ``ping_target_set``.
``ping_target_set``
    ``ping_repeats`` UDP pings per shortlisted broker, sent a repeat at
    a time, target by target: repeat 0 as the phase opens, each later
    repeat from one run-scoped event ``_PING_REPEAT_SPACING`` after the
    one before -- one scheduler event per repeat, not per ping.  Pongs
    arrive through the :class:`Pinger` and are counted as they come
    (``pongs_due``, and the targets still ``silent``), never recounted
    from its samples; a pong counts only if it answers one of this
    run's pings, since a closing run cancels those still outstanding.
    ``ping`` is ``ping_timeout``, cut to ``PING_GRACE`` once every
    target has answered once.  The last pong due, or ``ping``, moves
    the run to ``final_decision``.
``final_decision``
    A run-scoped timer models the ranking cost; the run then closes.

Section 7's ladder is written once, in :meth:`DiscoveryClient._transmit`
and :meth:`DiscoveryClient._advance`: each BDN in turn
(``max_retransmits`` retransmissions apiece), then multicast, then the
cached target set, then failure; a rung that cannot carry the request is
passed over at once.  :meth:`DiscoveryClient._retransmit_here` is the
one place the paper's fixed timer and a ``RetryPolicyConfig`` differ.
Every run, decided or aborted, ends in :meth:`DiscoveryClient._close`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.core.config import ClientConfig, Endpoint
from repro.core.errors import DiscoveryError
from repro.core.messages import (
    Ack,
    DiscoveryBusy,
    DiscoveryRequest,
    DiscoveryResponse,
    Message,
    PingResponse,
)
from repro.runtime.api import Runtime, TimerHandle
from repro.simnet.node import Node
from repro.substrate.broker import DISCOVERY_GROUP
from repro.discovery.overload import CircuitBreaker, DecorrelatedJitterBackoff, TokenBucket
from repro.discovery.phases import PHASE_NAMES, PhaseTimer
from repro.discovery.replication import try_parse_endpoint
from repro.discovery.ping import Pinger
from repro.discovery.selection import Candidate, make_candidate, select_target_set

__all__ = [
    "CLIENT_UDP_PORT",
    "PING_GRACE",
    "PING_TIE_ABSOLUTE",
    "PING_TIE_RELATIVE",
    "DiscoveryClient",
    "DiscoveryOutcome",
    "CachedTarget",
]

CLIENT_UDP_PORT = 7500

# The five states, by their phase names.
_ISSUE, _COLLECT, _SELECT, _PING, _DECIDE = PHASE_NAMES
# The two in which the request is still waiting for an answer.
_AWAITING = (_ISSUE, _COLLECT)
# Section 7's rungs in order; ``run.via`` is the last one transmitted on.
_LADDER = ("bdn", "multicast", "cached")

# Simulated CPU cost of the selection computation: a base plus a small
# per-candidate term (sorting/weighting is cheap but not free).
_SELECT_COST_BASE = 0.0002
_SELECT_COST_PER_CANDIDATE = 2e-5
# Simulated CPU cost of the final ranking over ping RTTs.
_DECIDE_COST = 0.0001
# Spacing between successive ping repeats to the same broker.
_PING_REPEAT_SPACING = 0.010

#: Once every target has answered one ping, wait only this long for
#: straggler repeats: a lost pong must not stall the phase, while a
#: broker that never answers still runs into ``ping_timeout`` (its
#: silence is the paper's "good indicator" that it is far away).
PING_GRACE = 0.06
#: Measured RTTs within ``best * (1 + PING_TIE_RELATIVE) +
#: PING_TIE_ABSOLUTE`` of the minimum count as equally near and the
#: usage-metric score breaks the tie: how the metrics "facilitate
#: selection based on usage and dynamic real time load balancing"
#: (section 5.1) among equidistant brokers.
PING_TIE_RELATIVE = 0.15
PING_TIE_ABSOLUTE = 0.001


@dataclass(slots=True)
class CachedTarget:
    """A remembered target-set entry for reconnect-after-disconnect.

    Section 7: "Every node keeps track of [its] last target set of
    brokers" and, with every BDN down, re-issues the request to them
    directly.
    """

    broker_id: str
    host: str
    udp_port: int

    @property
    def udp_endpoint(self) -> Endpoint:
        return Endpoint(self.host, self.udp_port)


@dataclass(slots=True)
class DiscoveryOutcome:
    """Everything one discovery run produced.

    Attributes
    ----------
    success:
        Whether a broker was selected.
    selected:
        The winning candidate (None on failure).
    selected_rtt:
        The winner's measured average ping RTT in seconds (None if it
        was chosen without ping data).
    candidates:
        Every distinct responding broker, as scored candidates.
    target_set:
        The shortlist that was pinged.
    ping_rtts:
        Average measured RTT per target-set broker that answered pings.
    phases:
        The per-phase timer (durations and percentages).
    total_time:
        Wall-clock (virtual) seconds from ``discover()`` to completion.
    via:
        Which path produced the responses: ``"bdn"``, ``"multicast"``
        or ``"cached"``.
    bdn_used:
        Endpoint of the BDN that acknowledged, if any.
    transmissions:
        Total request transmissions (1 = no retransmission needed).
    request_uuid:
        UUID of the discovery request.
    """

    success: bool
    selected: Candidate | None
    selected_rtt: float | None
    candidates: list[Candidate]
    target_set: list[Candidate]
    ping_rtts: dict[str, float]
    phases: PhaseTimer
    total_time: float
    via: str
    bdn_used: Endpoint | None
    transmissions: int
    request_uuid: str


def _cached(candidate: Candidate) -> CachedTarget:
    endpoint = candidate.udp_endpoint
    return CachedTarget(candidate.broker_id, endpoint.host, endpoint.port)


class _Run:
    """Mutable state of one discovery attempt.

    ``state`` is the open phase name: written by ``_begin_phase`` (the
    first call opens the run) and by ``_close`` (``None``), nowhere else.
    """

    __slots__ = (
        "uuid",
        "state",
        "phases",
        "started_at",
        "candidates",
        "target_set",
        "ping_to",
        "silent",
        "pongs_due",
        "pings",
        "via",
        "bdn_index",
        "bdn_order",
        "hint_jumped",
        "bdn_used",
        "retransmits_here",
        "transmissions",
        "on_complete",
        "timers",
        "aux_timers",
        "extended",
    )

    def __init__(self, uuid: str, phases: PhaseTimer, now: float, on_complete) -> None:
        self.uuid = uuid
        self.phases = phases
        self.started_at = now
        self.candidates: dict[str, Candidate] = {}
        self.target_set: list[Candidate] = []
        # ping_target_set: broker id -> UDP endpoint of each target, the
        # targets not heard from yet, the pongs still due, and the uuid
        # of every ping the run sent.
        self.ping_to: dict[str, Endpoint] = {}
        self.silent: set[str] = set()
        self.pongs_due = 0
        self.pings: list[str] = []
        self.via = "bdn"
        self.bdn_index = 0
        self.bdn_order: tuple[Endpoint, ...] = ()
        self.hint_jumped = False
        self.bdn_used: Endpoint | None = None
        self.retransmits_here = 0
        self.transmissions = 0
        self.on_complete = on_complete
        # silence, window, retry, ping: DiscoveryClient._arm / _disarm.
        self.timers: dict[str, TimerHandle] = {}
        # Short-lived scheduled work (selection/decision CPU cost, ping
        # repeats); tracked so an aborted run leaves nothing pending.
        self.aux_timers: set[TimerHandle] = set()
        self.extended = False

    def cancel_timers(self) -> None:
        for timer in self.timers.values():
            timer.cancel()
        for timer in self.aux_timers:
            timer.cancel()
        self.aux_timers.clear()


class DiscoveryClient(Node):
    """A node that discovers the nearest available broker.

    One discovery runs at a time; sequential runs on the same client
    reuse its UDP endpoint and its cached target set.

    Parameters
    ----------
    name, host, network, rng:
        Standard node parameters (``network`` is a
        :class:`~repro.runtime.api.Runtime` or a simulated fabric).
    config:
        Discovery behaviour (BDN list, timeout, N, |T|, ping repeats,
        fallbacks...).
    """

    def __init__(
        self,
        name: str,
        host: str,
        network: Runtime | object,
        rng: np.random.Generator,
        config: ClientConfig | None = None,
        site: str | None = None,
        realm: str | None = None,
        multicast_enabled: bool = True,
        obs=None,
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
        self.config = config if config is not None else ClientConfig()
        self.pinger = Pinger(self, self.endpoint(CLIENT_UDP_PORT))
        self.pinger.on_rtt = self._on_ping_rtt
        self.last_target_set: list[CachedTarget] = []
        self.last_selected: CachedTarget | None = None
        self._run: _Run | None = None
        self._watch_timers: set[TimerHandle] = set()
        self.late_responses = 0
        # Adaptive retry machinery, active only with a RetryPolicyConfig
        # (the default None preserves the paper's fixed retransmit timer
        # exactly -- no extra rng draws, no extra timers).
        policy = self.config.retry_policy
        self.retry_budget: TokenBucket | None = None
        self._backoff: DecorrelatedJitterBackoff | None = None
        self._breakers: dict[Endpoint, CircuitBreaker] = {}
        self._bdn_retry_at: dict[Endpoint, float] = {}
        if policy is not None:
            self.retry_budget = TokenBucket(
                policy.budget_capacity, policy.budget_refill_per_sec, lambda: self.runtime.now
            )
            self._backoff = DecorrelatedJitterBackoff(
                policy.backoff_base, policy.backoff_cap, self.rng
            )
        self.busy_received = 0
        self.retries_denied = 0
        self.bdn_skips = 0
        # Last leader hint heard from a replicated BDN group (via a
        # DiscoveryBusy or DiscoveryResponse); subsequent runs try the
        # hinted leader first.  None until a hint arrives, in which
        # case runs walk the configured BDN order unchanged.
        self.preferred_bdn: Endpoint | None = None
        self.leader_hint_updates = 0

    @property
    def udp_endpoint(self) -> Endpoint:
        """Where acks, responses and pongs arrive."""
        return self.endpoint(CLIENT_UDP_PORT)

    @property
    def breaker_trips(self) -> int:
        """Total circuit-breaker trips across every tracked BDN."""
        return sum(b.trips for b in self._breakers.values())

    def breaker_states(self) -> dict[str, str]:
        """Current circuit-breaker state per BDN endpoint (for telemetry)."""
        return {str(bdn): breaker.state for bdn, breaker in self._breakers.items()}

    def _breaker(self, bdn: Endpoint) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one BDN."""
        breaker = self._breakers.get(bdn)
        if breaker is None:
            policy = self.config.retry_policy
            breaker = CircuitBreaker(
                policy.breaker_failures, policy.breaker_cooldown, lambda: self.runtime.now
            )
            self._breakers[bdn] = breaker
        return breaker

    def _bdn_order(self) -> tuple[Endpoint, ...]:
        """This run's BDN ladder: the hinted leader first, then config order.

        With no hint on record the ladder *is* the configured order --
        byte-identical behaviour for unreplicated worlds.
        """
        bdns = tuple(self.config.bdn_endpoints)
        preferred = self.preferred_bdn
        if preferred is None or preferred not in bdns or bdns[0] == preferred:
            return bdns
        return (preferred, *(b for b in bdns if b != preferred))

    def _note_leader_hint(self, hint: str) -> None:
        """Record a leader hint heard from a BDN group member.

        The hinted endpoint becomes the first rung of subsequent runs'
        BDN ladders, and -- when the adaptive retry policy is active --
        its circuit breaker is made immediately probeable: a takeover
        hint is fresh evidence that the named replica is up, so it must
        not sit out a stale open interval.
        """
        if not hint:
            return
        endpoint = try_parse_endpoint(hint)
        if endpoint is None or endpoint not in self.config.bdn_endpoints:
            return
        if endpoint == self.preferred_bdn:
            return
        self.preferred_bdn = endpoint
        self.leader_hint_updates += 1
        self.emit("leader_hint_update", bdn=endpoint)
        if self.config.retry_policy is not None:
            self._breaker(endpoint).probe_now()

    def start(self) -> None:
        """Bind the UDP port and kick off NTP."""
        if self.started:
            return
        super().start()
        self.runtime.bind_udp(self.udp_endpoint, self._on_udp)

    def stop(self) -> None:
        """Take the client offline; idempotent.

        Any in-flight discovery fails immediately (its completion
        callback fires with ``success=False``), every outstanding timer
        -- run timers, scheduled CPU-cost callbacks, ping repeats and
        broker watches -- is cancelled, and the UDP port is released.
        Nothing this client scheduled remains pending afterwards.
        """
        if not self.started:
            return
        self._started = False
        for series in self._watch_timers:
            series.cancel()
        self._watch_timers.clear()
        run = self._run
        if run is not None:
            self._close(run)
        self.runtime.unbind_udp(self.udp_endpoint)
        self.emit("client_stop")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover(self, on_complete: Callable[[DiscoveryOutcome], None]) -> str:
        """Begin one discovery; ``on_complete`` fires with the outcome.

        Returns the request UUID.  Raises :class:`DiscoveryError` if a
        discovery is already in flight.
        """
        run = self._open(on_complete, reconnect=False)
        run.bdn_order = self._bdn_order()
        if self._backoff is not None:
            self._backoff.reset()  # each run starts its backoff sequence fresh
        self.emit("discover_start", request=run.uuid)
        # With no BDNs configured the top rung is multicast ("our scheme
        # ... can work even if there are no BDNs up and running", s. 3).
        self._transmit(run)
        return run.uuid

    def rediscover(self, on_complete: Callable[[DiscoveryOutcome], None]) -> str:
        """Reconnect through the cached target set, skipping the BDNs.

        Section 7's reconnect-after-disconnect: a node whose broker
        dies "keeps track of [its] last target set of brokers" and
        re-issues the request to them directly, with no fresh BDN round
        trip.  Raises :class:`DiscoveryError` if a discovery is already
        in flight, the client is not started, or nothing is cached.
        """
        run = self._open(on_complete, reconnect=True)
        self.emit("rediscover_start", request=run.uuid)
        self._transmit(run, _LADDER.index("cached"))
        return run.uuid

    def _open(self, on_complete, reconnect: bool) -> _Run:
        """Open a run in ``issue_request``, or refuse -- in this order and
        before ``self.ids()`` draws: in flight, not started, nothing cached."""
        if self._run is not None:
            raise DiscoveryError(f"client {self.name} already has a discovery in flight")
        if not self.started:
            raise DiscoveryError(f"client {self.name} must be started before discovering")
        if reconnect and not self.last_target_set:
            raise DiscoveryError(
                f"client {self.name} has no cached target set to reconnect with"
            )
        phases = PhaseTimer(lambda: self.runtime.now)
        run = self._run = _Run(self.ids(), phases, self.runtime.now, on_complete)
        self._begin_phase(run, _ISSUE)
        return run

    def watch_selected(
        self,
        on_reconnect: Callable[[DiscoveryOutcome], None],
        interval: float = 1.0,
        max_missed: int = 3,
    ):
        """Monitor the selected broker; rediscover when it stops answering.

        Pings :attr:`last_selected` every ``interval`` seconds.  After
        ``max_missed`` consecutive intervals with no pong the broker is
        declared dead, the watch cancels itself and
        :meth:`rediscover` runs with ``on_reconnect`` as its completion
        callback.  Ticks that land while a discovery is already in
        flight are skipped.  Returns the periodic series handle (cancel
        it to stop watching).
        """
        if interval <= 0 or max_missed < 1:
            raise DiscoveryError("invalid watch schedule")
        target = self.last_selected
        if target is None:
            raise DiscoveryError(f"client {self.name} has no selected broker to watch")
        key = f"watch:{target.broker_id}"
        state = {"missed": 0, "pinged": False}

        def tick() -> None:
            if self._run is not None:
                return
            last = self.pinger.last_heard(key)
            heard_recently = last is not None and self.runtime.now - last <= interval
            if state["pinged"] and not heard_recently:
                state["missed"] += 1
            elif heard_recently:
                state["missed"] = 0
            if state["missed"] >= max_missed:
                series.cancel()
                self._watch_timers.discard(series)
                self.emit("watch_broker_lost", broker=target.broker_id)
                self.rediscover(on_reconnect)
                return
            state["pinged"] = True
            self.pinger.ping(target.udp_endpoint, key=key)

        series = self.runtime.call_every(interval, tick)
        self._watch_timers.add(series)
        return series

    # ------------------------------------------------------------------
    # States and timers
    # ------------------------------------------------------------------
    def _begin_phase(self, run: _Run, name: str) -> None:
        """Enter state ``name``: the PhaseTimer, ``run.state`` and the span.

        The span is emitted at the same call site, off the same runtime
        clock, as :meth:`PhaseTimer.begin`, which is what makes the
        assembled timeline's per-phase shares agree with
        :meth:`PhaseTimer.percentages`.
        """
        run.phases.begin(name)
        run.state = name
        self.emit("phase", run.uuid, phase=name)

    def _arm(self, run: _Run, name: str, delay: float, fn) -> None:
        """(Re)start the run's timer ``name``: ``fn(run)`` after ``delay``."""
        self._disarm(run, name)
        run.timers[name] = self.runtime.schedule(delay, fn, run)

    def _disarm(self, run: _Run, name: str) -> None:
        timer = run.timers.pop(name, None)
        if timer is not None:
            timer.cancel()

    def _schedule_aux(self, run: _Run, delay: float, fn, *args) -> None:
        """Schedule run-scoped work whose handle dies with the run."""

        def fire() -> None:
            run.aux_timers.discard(handle)
            fn(*args)

        handle = self.runtime.schedule(delay, fire)
        run.aux_timers.add(handle)

    # ------------------------------------------------------------------
    # Transmission and the ladder (section 7)
    # ------------------------------------------------------------------
    def _transmit(self, run: _Run, rung: int = 0) -> None:
        """Send on the first of ``_LADDER[rung:]`` that can; else fail."""
        for send in (self._send_to_bdn, self._send_multicast, self._send_cached)[rung:]:
            if send(run):
                return
        self._close(run)

    def _next_request(self, run: _Run, via: str) -> DiscoveryRequest:
        """Build and count the run's next transmission, bound for ``via``."""
        run.via = via
        request = DiscoveryRequest(
            uuid=run.uuid,
            requester_host=self.host,
            requester_port=CLIENT_UDP_PORT,
            transports=("tcp", "udp"),
            credentials=self.config.credentials,
            realm=self.realm,
            issued_at=self.utc(),
            attempt=run.transmissions,  # each transmission is a fresh attempt
            # The request UUID doubles as the trace id; flag it on the
            # wire whenever this client records flight spans, so every
            # downstream engine can annotate the same trace.
            trace_flag=self.observing,
        )
        run.transmissions += 1
        return request

    def _await_reply(self, run: _Run) -> None:
        """After any transmission: a fresh window, a fresh silence timer."""
        self._arm(run, "window", self.config.response_timeout, self._on_collection_deadline)
        self._arm(run, "silence", self.config.retransmit_interval, self._on_silence)

    def _send_to_bdn(self, run: _Run) -> bool:
        """The BDN rungs: ask the first one still admissible."""
        bdn = self._admissible_bdn(run)
        if bdn is None:
            return False
        request = self._next_request(run, "bdn")
        self.runtime.send_udp(self.udp_endpoint, bdn, request)
        self._await_reply(run)
        self.emit(
            "request_sent", run.uuid, kind="DiscoveryRequest", bdn=bdn, attempt=request.attempt
        )
        return True

    def _admissible_bdn(self, run: _Run) -> Endpoint | None:
        """The BDN the run stands on, or ``None`` past the last.

        Under a retry policy ``run.bdn_index`` first moves past every BDN
        gated by a ``retry_after`` or behind an open breaker: no
        transmission is wasted on them.  The gate is checked *before* the
        breaker so a gated BDN does not consume its half-open probe.
        """
        bdns = run.bdn_order
        policy = self.config.retry_policy is not None
        while run.bdn_index < len(bdns):
            bdn = bdns[run.bdn_index]
            if not policy:
                return bdn
            if self._bdn_retry_at.get(bdn, 0.0) > self.runtime.now:
                skipped = "bdn_skipped_retry_after"
            elif not self._breaker(bdn).allow():
                skipped = "bdn_skipped_breaker"
            else:
                return bdn
            self.bdn_skips += 1
            self.emit(skipped, request=run.uuid, bdn=bdn)
            run.bdn_index += 1
            run.retransmits_here = 0
        return None

    def _send_multicast(self, run: _Run) -> bool:
        """The multicast rung: in-realm brokers that joined the group."""
        config = self.config
        if not (config.use_multicast_fallback and self.runtime.multicast_enabled(self.host)):
            return False
        request = self._next_request(run, "multicast")
        reached = self.runtime.multicast(self.udp_endpoint, DISCOVERY_GROUP, request)
        self.emit(
            "request_multicast", run.uuid, kind="DiscoveryRequest", via="multicast", reached=reached
        )
        if reached == 0:
            return False
        self._await_reply(run)
        return True

    def _send_cached(self, run: _Run) -> bool:
        """The last rung: the cached target set, each broker directly."""
        targets = self.last_target_set
        if not targets:
            return False
        request = self._next_request(run, "cached")
        for target in targets:
            self.runtime.send_udp(self.udp_endpoint, target.udp_endpoint, request)
        self.emit(
            "request_cached_targets", run.uuid,
            kind="DiscoveryRequest", via="cached", targets=len(targets),
        )
        self._await_reply(run)
        return True

    def _on_silence(self, run: _Run) -> None:
        """``silence`` fired, or ``window`` closed empty (an ack whose
        responses were all lost): walk the ladder."""
        if run.state not in _AWAITING or run.candidates:
            return
        if run.via != "bdn" or not self._retransmit_here(run):
            self._advance(run)

    def _retransmit_here(self, run: _Run) -> bool:
        """A BDN stayed silent: retransmit to it, if the run still may.

        The one place the two retry policies differ.  The paper's fixed
        timer retransmits at once, ``max_retransmits`` times.  Under a
        ``RetryPolicyConfig`` the silence is first a failure on the BDN's
        breaker; a retransmission is paid for from the retry budget and
        waits out a decorrelated-jitter backoff (never earlier than the
        BDN's ``retry_after``); an empty budget moves the run on.
        """
        policy = self.config.retry_policy is not None
        bdn = run.bdn_order[run.bdn_index]
        if policy:
            self._breaker(bdn).record_failure()
        if run.retransmits_here >= self.config.max_retransmits:
            return False
        if policy and not self._buy_retry(run):
            return False
        run.retransmits_here += 1
        if policy:
            gate = self._bdn_retry_at.get(bdn, 0.0)
            delay = max(self._backoff.next(), gate - self.runtime.now)
            self.emit("request_retransmit_budgeted", request=run.uuid, delay=f"{delay:.3f}")
            self._park(run, delay)
        else:
            self.emit("request_retransmit", request=run.uuid)
            self._transmit(run)
        return True

    def _advance(self, run: _Run, hint: str = "") -> None:
        """Step off the rung the run stands on and transmit below it.

        Below a BDN is the next BDN (or the leader a busy one named,
        :meth:`_next_bdn_index`); below the last BDN, multicast; then
        the cached target set; then failure.
        """
        rung = _LADDER.index(run.via)
        if rung == 0 and run.bdn_index + 1 < len(run.bdn_order):
            run.bdn_index = self._next_bdn_index(run, hint)
            run.retransmits_here = 0
            self.emit("request_next_bdn", request=run.uuid)
            self._transmit(run)
        else:
            self._transmit(run, rung + 1)

    def _next_bdn_index(self, run: _Run, hint: str) -> int:
        """Where the walk resumes among the BDNs: usually the next rung.

        When a busy signal names the group leader and that leader
        sits *further down* this run's ladder, jump straight to it --
        at most once per run, so a bouncing hint cannot re-order the
        walk indefinitely.  The index only ever moves forward, which
        keeps the ladder walk terminating.
        """
        if hint and not run.hint_jumped:
            hinted = try_parse_endpoint(hint)
            if hinted in run.bdn_order:
                j = run.bdn_order.index(hinted)
                if j > run.bdn_index:
                    run.hint_jumped = True
                    self.emit("leader_hint_jump", request=run.uuid, bdn=hinted)
                    return j
        return run.bdn_index + 1

    def _buy_retry(self, run: _Run) -> bool:
        """Pay one retry-budget token; a refusal is counted and said."""
        if self.retry_budget.try_acquire():
            return True
        self.retries_denied += 1
        self.emit("retry_denied", request=run.uuid)
        return False

    def _park(self, run: _Run, delay: float) -> None:
        """Sit out a backoff: ``retry`` replaces ``window`` and ``silence``."""
        self._disarm(run, "window")
        self._disarm(run, "silence")
        self._arm(run, "retry", delay, self._retry_fire)

    def _retry_fire(self, run: _Run) -> None:
        del run.timers["retry"]  # fired, nothing left to cancel
        if run.state in _AWAITING and not run.candidates:
            self._transmit(run)

    # ------------------------------------------------------------------
    # Message arrival
    # ------------------------------------------------------------------
    def _on_udp(self, message: Message, src: Endpoint) -> None:
        if isinstance(message, PingResponse):
            self.pinger.on_response(message, src)
            return
        run = self._run
        if isinstance(message, DiscoveryResponse):
            if run is not None and message.request_uuid == run.uuid:
                self._on_response(run, message)
            else:
                self._late(message)
        elif run is None:
            return
        elif isinstance(message, Ack) and message.uuid == run.uuid:
            self._on_ack(run, src)
        elif isinstance(message, DiscoveryBusy) and message.request_uuid == run.uuid:
            self._on_busy(run, message, src)

    def _late(self, response: DiscoveryResponse) -> None:
        """A response no run is collecting any more."""
        self.late_responses += 1
        if response.trace_flag:
            self.emit(
                "late", response.request_uuid, hop=response.trace_hop,
                kind="DiscoveryResponse", broker=response.broker_id,
            )

    def _on_ack(self, run: _Run, src: Endpoint) -> None:
        if run.state != _ISSUE:
            return
        if self.config.retry_policy is not None:
            self._breaker(src).record_success()
        run.bdn_used = src
        self.emit("recv", run.uuid, kind="Ack", bdn=src)
        self._enter_collecting(run)

    def _on_busy(self, run: _Run, busy: DiscoveryBusy, src: Endpoint) -> None:
        """A BDN refused the request under load (admission control).

        The busy signal replaces the ack+silence round trip: the BDN is
        gated for ``retry_after`` seconds, its breaker records a
        failure, and the client immediately walks to the next BDN.  When
        the whole rung is busy, one retry-budget token buys a backed-off
        retry of the rung once the earliest gate opens; with the budget
        empty the run falls through to multicast.
        """
        if self.config.retry_policy is None:
            return  # no policy: treat like any stray datagram
        self.busy_received += 1
        self.emit(
            "bdn_busy_received", run.uuid, hop=busy.trace_hop,
            kind="DiscoveryBusy", bdn=busy.bdn, retry_after=f"{busy.retry_after:.3f}",
        )
        self._bdn_retry_at[src] = self.runtime.now + busy.retry_after
        self._breaker(src).record_failure()
        self._note_leader_hint(busy.leader_hint)
        if run.state != _ISSUE or run.via != "bdn" or run.candidates:
            return
        bdns = run.bdn_order
        if run.bdn_index >= len(bdns) or bdns[run.bdn_index] != src:
            return  # stale busy from a BDN we already moved past
        if run.bdn_index + 1 < len(bdns) or not self._buy_retry(run):
            self._advance(run, busy.leader_hint)
            return
        earliest = min(self._bdn_retry_at.get(b, 0.0) for b in bdns)
        delay = max(self._backoff.next(), earliest - self.runtime.now)
        run.bdn_index = 0
        run.retransmits_here = 0
        self.emit("request_rung_retry", request=run.uuid, delay=f"{delay:.3f}")
        self._park(run, delay)

    def _enter_collecting(self, run: _Run) -> None:
        self._begin_phase(run, _COLLECT)
        self._disarm(run, "silence")

    def _on_response(self, run: _Run, response: DiscoveryResponse) -> None:
        if response.leader_hint:
            # A broker in a replicated world echoes its group-leader
            # belief; remember it so the next run tries the leader
            # first (and its breaker gets an immediate probe).
            self._note_leader_hint(response.leader_hint)
        if run.state == _ISSUE:
            # The response doubles as an implicit ack (the BDN's ack may
            # have been lost, or the request went out via multicast).
            self._enter_collecting(run)
        if run.state != _COLLECT:
            self._late(response)
            return
        if response.broker_id in run.candidates:
            if response.trace_flag:
                self.emit(
                    "dup_suppressed", run.uuid, hop=response.trace_hop,
                    kind="DiscoveryResponse", broker=response.broker_id,
                )
            return  # duplicate (e.g. answer to a retransmission)
        run.candidates[response.broker_id] = make_candidate(
            response, self.utc(), self.config.weights
        )
        self.emit(
            "response_received", run.uuid if response.trace_flag else "", hop=response.trace_hop,
            kind="DiscoveryResponse", broker=response.broker_id,
        )
        if len(run.candidates) >= self.config.max_responses:
            self._end_collection(run, reason="max_responses")

    def _on_collection_deadline(self, run: _Run) -> None:
        if run.state not in _AWAITING:
            return
        if not run.candidates:
            # The whole window elapsed with nothing: walk the ladder
            # from wherever we are.
            self._on_silence(run)
            return
        if (
            len(run.candidates) < self.config.min_responses
            and not run.extended
            and run.retransmits_here < self.config.max_retransmits
            and run.via == "bdn"
        ):
            # Thin sample: retransmit once and extend the window so
            # brokers whose responses were lost can answer again.
            run.extended = True
            run.retransmits_here += 1
            self.emit("collection_extended", request=run.uuid)
            self._transmit(run)
            return
        self._end_collection(run, reason="timeout")

    # ------------------------------------------------------------------
    # Selection and pinging
    # ------------------------------------------------------------------
    def _end_collection(self, run: _Run, reason: str) -> None:
        run.cancel_timers()
        self._begin_phase(run, _SELECT)
        self.emit("collection_done", request=run.uuid, reason=reason, n=len(run.candidates))
        cost = _SELECT_COST_BASE + _SELECT_COST_PER_CANDIDATE * len(run.candidates)
        self._schedule_aux(run, cost, self._select_targets, run)

    #: Transports a shortlisted broker must offer: UDP for the ping
    #: phase, TCP for the eventual client connection.
    _REQUIRED_TRANSPORTS = ("udp", "tcp")

    def _select_targets(self, run: _Run) -> None:
        usable = []
        for cand in run.candidates.values():
            missing = cand.missing_transports(self._REQUIRED_TRANSPORTS)
            if missing:
                # Previously these fell through with a port-0 endpoint
                # and got pinged into the void; exclude them up front.
                self.emit(
                    "candidate_excluded", request=run.uuid, broker=cand.broker_id,
                    missing=",".join(missing),
                )
                continue
            usable.append(cand)
        run.target_set = select_target_set(
            usable,
            self.config.target_set_size,
            required_transports=self._REQUIRED_TRANSPORTS,
        )
        self._begin_phase(run, _PING)
        self.pinger.clear_samples()
        run.ping_to = {t.broker_id: t.udp_endpoint for t in run.target_set}
        run.silent = set(run.ping_to)
        repeats = self.config.ping_repeats
        run.pongs_due = len(run.ping_to) * repeats
        self._ping_round(run)
        for repeat in range(1, repeats):
            self._schedule_aux(run, repeat * _PING_REPEAT_SPACING, self._ping_round, run)
        self._arm(run, "ping", self.config.ping_timeout, self._decide)

    def _ping_round(self, run: _Run) -> None:
        """One repeat: a ping to every target, in target-set order."""
        if run.state != _PING:
            return
        ping, sent = self.pinger.ping, run.pings
        for broker_id, endpoint in run.ping_to.items():
            sent.append(ping(endpoint, key=broker_id, trace_id=run.uuid))

    def _on_ping_rtt(self, key: str, rtt: float) -> None:
        run = self._run
        if run is None or run.state != _PING or key not in run.ping_to:
            return  # no run pinging, or the pong of a broker watch
        run.pongs_due -= 1
        if run.pongs_due == 0:
            self._decide(run)
            return
        run.silent.discard(key)
        if not run.silent:
            # Every target has answered at least once: a lost straggler
            # repeat should not stall the phase until the hard timeout,
            # so re-arm a short grace deadline instead.
            self._arm(run, "ping", PING_GRACE, self._decide)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, run: _Run) -> None:
        if run.state != _PING:
            return
        self._disarm(run, "ping")
        self._begin_phase(run, _DECIDE)
        self._schedule_aux(run, _DECIDE_COST, self._complete, run)

    def _complete(self, run: _Run) -> None:
        ping_rtts: dict[str, float] = {}
        for target in run.target_set:
            rtt = self.pinger.average_rtt(target.broker_id)
            if rtt is not None:
                ping_rtts[target.broker_id] = rtt
        selected: Candidate | None = None
        selected_rtt: float | None = None
        if ping_rtts:
            # "The requesting node decides on the target node based on
            # the lowest delay associated with the ping requests."
            # RTTs within the tie tolerance of the minimum count as
            # equally near; the usage-metric score then decides, which
            # is what steers joiners onto a fresh broker in a cluster
            # of equidistant peers (paper section 8, advantage 3).
            best_rtt = min(ping_rtts.values())
            threshold = best_rtt * (1.0 + PING_TIE_RELATIVE) + PING_TIE_ABSOLUTE
            eligible = [
                t
                for t in run.target_set
                if ping_rtts.get(t.broker_id, float("inf")) <= threshold
            ]
            # Tie-break on the pure usage-metric weight: distance is
            # already settled by the measured RTTs, so re-injecting the
            # NTP-noisy delay estimate (via the combined score) would
            # only add error here.
            selected = max(
                eligible, key=lambda t: (t.weight, -ping_rtts[t.broker_id], t.broker_id)
            )
            selected_rtt = ping_rtts[selected.broker_id]
        elif run.target_set and not self.config.require_ping_evidence:
            # No pongs at all (heavy loss): fall back to the best score.
            # Under ``require_ping_evidence`` this optimistic pick is
            # disabled -- zero pongs becomes an explicit failure.
            selected = run.target_set[0]
        self._close(run, (selected, selected_rtt, ping_rtts))

    def _close(self, run: _Run, decision=None) -> None:
        """The one way a run ends: outcome, cache, ``done``, metrics, callback.

        ``decision`` is :meth:`_complete`'s ``(selected, selected_rtt,
        ping_rtts)``.  Without one the run was aborted (the ladder ran out,
        or :meth:`stop`) and reports no candidates and no target set.
        """
        run.cancel_timers()
        # A pong that answers this run's ping later belongs to no run: the
        # next run's ping phase must neither count it nor average it in.
        self.pinger.cancel(run.pings)
        run.phases.close()
        run.state = None
        if decision is None:
            selected = selected_rtt = None
            candidates, target_set, ping_rtts = [], [], {}
        else:
            selected, selected_rtt, ping_rtts = decision
            candidates = sorted(run.candidates.values(), key=lambda c: c.broker_id)
            target_set = run.target_set
        outcome = DiscoveryOutcome(
            success=selected is not None,
            selected=selected,
            selected_rtt=selected_rtt,
            candidates=candidates,
            target_set=target_set,
            ping_rtts=ping_rtts,
            phases=run.phases,
            total_time=self.runtime.now - run.started_at,
            via=run.via,
            bdn_used=run.bdn_used,
            transmissions=run.transmissions,
            request_uuid=run.uuid,
        )
        if selected is not None:
            self.last_target_set = [_cached(t) for t in target_set]
            self.last_selected = _cached(selected)
        self._run = None
        # An observing world accumulates outcome counters and latency
        # histograms across runs.
        if self.observing:
            registry = self.obs.registry
            name = "discovery.completed" if outcome.success else "discovery.failed"
            registry.counter(name).inc()
            registry.histogram("discovery.total_time").observe(outcome.total_time)
            for phase, duration in run.phases.durations().items():
                registry.histogram(f"discovery.phase.{phase}").observe(duration)
        # The closing fact also closes the run's flight-recorder trace.
        self.emit(
            "discover_failed" if decision is None else "discover_done", run.uuid,
            success=outcome.success, via=run.via,
        )
        run.on_complete(outcome)
