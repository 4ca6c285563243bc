"""The discovery client: issuing requests and selecting a broker.

This is the requesting node of paper sections 3, 6 and 7, implemented
as an event-driven state machine:

``ISSUING``
    The request has been sent (to a BDN, over multicast, or to the
    cached target set) but nothing has come back yet.  A retransmission
    timer guards this state: after ``retransmit_interval`` of silence
    the client retransmits, then walks the fallback chain --
    next configured BDN -> multicast -> cached target set (section 7).
``COLLECTING``
    Responses are being gathered, until ``max_responses`` arrive or the
    ``response_timeout`` window closes (section 9's two knobs).
``PINGING``
    The target set has been shortlisted (section 6) and UDP pings are
    measuring true RTTs, ``ping_repeats`` per broker.
``DONE`` / ``FAILED``
    The outcome has been delivered to the caller.

Every state transition is stamped into a
:class:`~repro.discovery.phases.PhaseTimer`, which is what the
sub-activity breakdown figures are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from repro.discovery.overload import CircuitBreaker, DecorrelatedJitterBackoff, TokenBucket
from repro.discovery.phases import PhaseTimer
from repro.discovery.replication import try_parse_endpoint
from repro.discovery.ping import Pinger
from repro.discovery.selection import Candidate, make_candidate, select_target_set

__all__ = ["CLIENT_UDP_PORT", "DiscoveryClient", "DiscoveryOutcome", "CachedTarget"]

CLIENT_UDP_PORT = 7500

# Simulated CPU cost of the selection computation: a base plus a small
# per-candidate term (sorting/weighting is cheap but not free).
_SELECT_COST_BASE = 0.0002
_SELECT_COST_PER_CANDIDATE = 2e-5
# Simulated CPU cost of the final ranking over ping RTTs.
_DECIDE_COST = 0.0001
# Spacing between successive ping repeats to the same broker.
_PING_REPEAT_SPACING = 0.010


@dataclass(frozen=True, slots=True)
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


class _Run:
    """Mutable state of one discovery attempt."""

    __slots__ = (
        "uuid",
        "state",
        "phases",
        "started_at",
        "candidates",
        "target_set",
        "expected_pongs",
        "via",
        "bdn_index",
        "bdn_order",
        "hint_jumped",
        "bdn_used",
        "retransmits_here",
        "transmissions",
        "on_complete",
        "ack_timer",
        "collection_timer",
        "ping_timer",
        "retry_timer",
        "aux_timers",
        "extended",
    )

    def __init__(self, uuid: str, phases: PhaseTimer, now: float, on_complete) -> None:
        self.uuid = uuid
        self.state = "ISSUING"
        self.phases = phases
        self.started_at = now
        self.candidates: dict[str, Candidate] = {}
        self.target_set: list[Candidate] = []
        self.expected_pongs = 0
        self.via = "bdn"
        self.bdn_index = 0
        self.bdn_order: tuple[Endpoint, ...] = ()
        self.hint_jumped = False
        self.bdn_used: Endpoint | None = None
        self.retransmits_here = 0
        self.transmissions = 0
        self.on_complete = on_complete
        self.ack_timer: TimerHandle | None = None
        self.collection_timer: TimerHandle | None = None
        self.ping_timer: TimerHandle | None = None
        self.retry_timer: TimerHandle | None = None
        # Short-lived scheduled work (selection/decision CPU cost, ping
        # repeats); tracked so an aborted run leaves nothing pending.
        self.aux_timers: set[TimerHandle] = set()
        self.extended = False

    def cancel_timers(self) -> None:
        for timer in (
            self.ack_timer,
            self.collection_timer,
            self.ping_timer,
            self.retry_timer,
        ):
            if timer is not None:
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
            self._fail(run)
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
        if self._run is not None:
            raise DiscoveryError(f"client {self.name} already has a discovery in flight")
        if not self.started:
            raise DiscoveryError(f"client {self.name} must be started before discovering")
        phases = PhaseTimer(lambda: self.runtime.now)
        run = _Run(self.ids(), phases, self.runtime.now, on_complete)
        run.bdn_order = self._bdn_order()
        self._run = run
        self._begin_phase(run, "issue_request")
        if self._backoff is not None:
            self._backoff.reset()  # each run starts its backoff sequence fresh
        self.emit("discover_start", request=run.uuid)
        if self.config.bdn_endpoints:
            self._send_to_bdn(run)
        else:
            # No BDNs configured at all -- straight to multicast
            # ("our scheme ... can work even if there are no BDNs up
            # and running", section 3).
            self._fallback_multicast(run)
        return run.uuid

    def rediscover(self, on_complete: Callable[[DiscoveryOutcome], None]) -> str:
        """Reconnect through the cached target set, skipping the BDNs.

        Section 7's reconnect-after-disconnect: a node whose broker
        dies "keeps track of [its] last target set of brokers" and
        re-issues the request to them directly, with no fresh BDN round
        trip.  Raises :class:`DiscoveryError` if a discovery is already
        in flight, the client is not started, or nothing is cached.
        """
        if self._run is not None:
            raise DiscoveryError(f"client {self.name} already has a discovery in flight")
        if not self.started:
            raise DiscoveryError(f"client {self.name} must be started before discovering")
        if not self.last_target_set:
            raise DiscoveryError(
                f"client {self.name} has no cached target set to reconnect with"
            )
        phases = PhaseTimer(lambda: self.runtime.now)
        run = _Run(self.ids(), phases, self.runtime.now, on_complete)
        self._run = run
        self._begin_phase(run, "issue_request")
        self.emit("rediscover_start", request=run.uuid)
        self._fallback_cached(run)
        return run.uuid

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
    # Request transmission and the fallback chain
    # ------------------------------------------------------------------
    def _begin_phase(self, run: _Run, name: str) -> None:
        """Advance the PhaseTimer and mirror it into the flight recorder.

        The span is emitted at the same call site, off the same runtime
        clock, as :meth:`PhaseTimer.begin`, which is what makes the
        assembled timeline's per-phase shares agree with
        :meth:`PhaseTimer.percentages`.
        """
        run.phases.begin(name)
        self.emit("phase", run.uuid, phase=name)

    def _request(self, run: _Run) -> DiscoveryRequest:
        return DiscoveryRequest(
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

    def _arm_collection_deadline(self, run: _Run) -> None:
        if run.collection_timer is not None:
            run.collection_timer.cancel()
        run.collection_timer = self.runtime.schedule(
            self.config.response_timeout, self._on_collection_deadline, run
        )

    def _send_to_bdn(self, run: _Run) -> None:
        if self.config.retry_policy is not None and not self._skip_unavailable_bdns(run):
            # Every remaining BDN is gated by a retry_after or an open
            # breaker: don't waste a transmission, walk on down the
            # fallback chain.
            self._fallback_multicast(run)
            return
        bdn = run.bdn_order[run.bdn_index]
        run.via = "bdn"
        request = self._request(run)
        run.transmissions += 1
        self.emit("send", run.uuid, kind="DiscoveryRequest", bdn=bdn, attempt=request.attempt)
        self.runtime.send_udp(self.udp_endpoint, bdn, request)
        self._arm_collection_deadline(run)
        if run.ack_timer is not None:
            run.ack_timer.cancel()
        run.ack_timer = self.runtime.schedule(
            self.config.retransmit_interval, self._on_silence, run
        )
        self.emit("request_sent", request=run.uuid, bdn=bdn)

    def _on_silence(self, run: _Run) -> None:
        """A silence timer fired with no responses collected yet.

        Reached from the ack timer (still ISSUING) or from a collection
        deadline that expired empty (COLLECTING after an ack whose
        responses were all lost) -- both walk the same fallback chain.
        """
        if run.state not in ("ISSUING", "COLLECTING") or run.candidates:
            return
        if run.via == "bdn":
            if self.config.retry_policy is not None:
                self._on_bdn_silence_with_policy(run)
            elif run.retransmits_here < self.config.max_retransmits:
                run.retransmits_here += 1
                self.emit("request_retransmit", request=run.uuid)
                self._send_to_bdn(run)
            elif run.bdn_index + 1 < len(run.bdn_order):
                run.bdn_index += 1
                run.retransmits_here = 0
                self.emit("request_next_bdn", request=run.uuid)
                self._send_to_bdn(run)
            else:
                self._fallback_multicast(run)
        elif run.via == "multicast":
            self._fallback_cached(run)
        else:  # cached
            self._fail(run)

    def _on_bdn_silence_with_policy(self, run: _Run) -> None:
        """The adaptive-retry replacement for the fixed BDN retransmit.

        Silence is a failure signal for the current BDN's breaker.  A
        retransmission must then be paid for from the retry budget and
        waits out a decorrelated-jitter backoff (never earlier than the
        BDN's advertised ``retry_after``); with the budget empty the
        client moves on instead of hammering.
        """
        bdn = run.bdn_order[run.bdn_index]
        self._breaker(bdn).record_failure()
        if run.retransmits_here < self.config.max_retransmits:
            if self.retry_budget.try_acquire():
                run.retransmits_here += 1
                gate = self._bdn_retry_at.get(bdn, 0.0)
                delay = max(self._backoff.next(), gate - self.runtime.now)
                self.emit(
                    "request_retransmit_budgeted", request=run.uuid, delay=f"{delay:.3f}"
                )
                self._schedule_retry(run, delay)
                return
            self.retries_denied += 1
            self.emit("retry_denied", request=run.uuid)
        if run.bdn_index + 1 < len(run.bdn_order):
            run.bdn_index += 1
            run.retransmits_here = 0
            self.emit("request_next_bdn", request=run.uuid)
            self._send_to_bdn(run)
        else:
            self._fallback_multicast(run)

    def _skip_unavailable_bdns(self, run: _Run) -> bool:
        """Advance ``run.bdn_index`` past gated/broken BDNs.

        Returns True when an admissible BDN remains.  The ``retry_after``
        gate is checked *before* the breaker so that a gated BDN does
        not consume the breaker's half-open probe.
        """
        bdns = run.bdn_order
        while run.bdn_index < len(bdns):
            bdn = bdns[run.bdn_index]
            if self._bdn_retry_at.get(bdn, 0.0) > self.runtime.now:
                self.bdn_skips += 1
                self.emit("bdn_skipped_retry_after", request=run.uuid, bdn=bdn)
            elif not self._breaker(bdn).allow():
                self.bdn_skips += 1
                self.emit("bdn_skipped_breaker", request=run.uuid, bdn=bdn)
            else:
                return True
            run.bdn_index += 1
            run.retransmits_here = 0
        return False

    def _schedule_retry(self, run: _Run, delay: float) -> None:
        """Park the run until the backoff elapses, then resend."""
        if run.collection_timer is not None:
            run.collection_timer.cancel()
            run.collection_timer = None
        if run.ack_timer is not None:
            run.ack_timer.cancel()
            run.ack_timer = None
        if run.retry_timer is not None:
            run.retry_timer.cancel()
        run.retry_timer = self.runtime.schedule(delay, self._retry_fire, run)

    def _retry_fire(self, run: _Run) -> None:
        run.retry_timer = None
        if run.state not in ("ISSUING", "COLLECTING") or run.candidates:
            return
        self._send_to_bdn(run)

    def _fallback_multicast(self, run: _Run) -> None:
        """Multicast the request to in-realm brokers (section 7)."""
        if not (
            self.config.use_multicast_fallback
            and self.runtime.multicast_enabled(self.host)
        ):
            self._fallback_cached(run)
            return
        run.via = "multicast"
        request = self._request(run)
        run.transmissions += 1
        self.emit("send", run.uuid, kind="DiscoveryRequest", via="multicast")
        reached = self.runtime.multicast(
            self.udp_endpoint, self.config.multicast_group, request
        )
        self.emit("request_multicast", request=run.uuid, reached=reached)
        if reached == 0:
            self._fallback_cached(run)
            return
        self._arm_collection_deadline(run)
        if run.ack_timer is not None:
            run.ack_timer.cancel()
        run.ack_timer = self.runtime.schedule(
            self.config.retransmit_interval, self._on_silence, run
        )

    def _fallback_cached(self, run: _Run) -> None:
        """Re-issue the request to the cached last target set (section 7)."""
        if not self.last_target_set:
            self._fail(run)
            return
        run.via = "cached"
        request = self._request(run)
        run.transmissions += 1
        self.emit(
            "send", run.uuid, kind="DiscoveryRequest", via="cached",
            targets=len(self.last_target_set),
        )
        for target in self.last_target_set:
            self.runtime.send_udp(self.udp_endpoint, target.udp_endpoint, request)
        self.emit("request_cached_targets", request=run.uuid, targets=len(self.last_target_set))
        self._arm_collection_deadline(run)
        if run.ack_timer is not None:
            run.ack_timer.cancel()
        run.ack_timer = self.runtime.schedule(
            self.config.retransmit_interval, self._on_silence, run
        )

    # ------------------------------------------------------------------
    # Message arrival
    # ------------------------------------------------------------------
    def _on_udp(self, message: Message, src: Endpoint) -> None:
        run = self._run
        if isinstance(message, PingResponse):
            self.pinger.on_response(message, src)
            return
        if run is None:
            if isinstance(message, DiscoveryResponse):
                self.late_responses += 1
                if message.trace_flag:
                    self.emit(
                        "late", message.request_uuid, hop=message.trace_hop,
                        kind="DiscoveryResponse", broker=message.broker_id,
                    )
            return
        if isinstance(message, Ack) and message.uuid == run.uuid:
            self._on_ack(run, src)
        elif isinstance(message, DiscoveryResponse) and message.request_uuid == run.uuid:
            self._on_response(run, message)
        elif isinstance(message, DiscoveryResponse):
            self.late_responses += 1
            if message.trace_flag:
                self.emit(
                    "late", message.request_uuid, hop=message.trace_hop,
                    kind="DiscoveryResponse", broker=message.broker_id,
                )
        elif isinstance(message, DiscoveryBusy) and message.request_uuid == run.uuid:
            self._on_busy(run, message, src)

    def _on_ack(self, run: _Run, src: Endpoint) -> None:
        if run.state != "ISSUING":
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
        self.emit("recv", run.uuid, hop=busy.trace_hop, kind="DiscoveryBusy", bdn=busy.bdn)
        self.emit(
            "bdn_busy_received",
            request=run.uuid,
            bdn=busy.bdn,
            retry_after=f"{busy.retry_after:.3f}",
        )
        self._bdn_retry_at[src] = self.runtime.now + busy.retry_after
        self._breaker(src).record_failure()
        self._note_leader_hint(busy.leader_hint)
        if run.state != "ISSUING" or run.via != "bdn" or run.candidates:
            return
        bdns = run.bdn_order
        if run.bdn_index >= len(bdns) or bdns[run.bdn_index] != src:
            return  # stale busy from a BDN we already moved past
        if run.bdn_index + 1 < len(bdns):
            run.bdn_index = self._next_bdn_index(run, busy.leader_hint)
            run.retransmits_here = 0
            self.emit("request_next_bdn", request=run.uuid)
            self._send_to_bdn(run)
            return
        if self.retry_budget.try_acquire():
            earliest = min(self._bdn_retry_at.get(b, 0.0) for b in bdns)
            delay = max(self._backoff.next(), earliest - self.runtime.now)
            run.bdn_index = 0
            run.retransmits_here = 0
            self.emit("request_rung_retry", request=run.uuid, delay=f"{delay:.3f}")
            self._schedule_retry(run, delay)
        else:
            self.retries_denied += 1
            self.emit("retry_denied", request=run.uuid)
            self._fallback_multicast(run)

    def _next_bdn_index(self, run: _Run, hint: str) -> int:
        """Where a busy-driven walk resumes: usually the next rung.

        When the busy signal names the group leader and that leader
        sits *further down* this run's ladder, jump straight to it --
        at most once per run, so a bouncing hint cannot re-order the
        walk indefinitely.  The index only ever moves forward, which
        keeps the ladder walk terminating.
        """
        nxt = run.bdn_index + 1
        if hint and not run.hint_jumped:
            hinted = try_parse_endpoint(hint)
            if hinted is not None:
                try:
                    j = run.bdn_order.index(hinted)
                except ValueError:
                    j = -1
                if j > run.bdn_index:
                    run.hint_jumped = True
                    self.emit("leader_hint_jump", request=run.uuid, bdn=hinted)
                    return j
        return nxt

    def _enter_collecting(self, run: _Run) -> None:
        run.state = "COLLECTING"
        self._begin_phase(run, "wait_initial_responses")
        if run.ack_timer is not None:
            run.ack_timer.cancel()
            run.ack_timer = None

    def _on_response(self, run: _Run, response: DiscoveryResponse) -> None:
        if response.leader_hint:
            # A broker in a replicated world echoes its group-leader
            # belief; remember it so the next run tries the leader
            # first (and its breaker gets an immediate probe).
            self._note_leader_hint(response.leader_hint)
        if run.state == "ISSUING":
            # The response doubles as an implicit ack (the BDN's ack may
            # have been lost, or the request went out via multicast).
            self._enter_collecting(run)
        if run.state != "COLLECTING":
            self.late_responses += 1
            if response.trace_flag:
                self.emit(
                    "late", run.uuid, hop=response.trace_hop,
                    kind="DiscoveryResponse", broker=response.broker_id,
                )
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
        if response.trace_flag:
            self.emit(
                "recv", run.uuid, hop=response.trace_hop,
                kind="DiscoveryResponse", broker=response.broker_id,
            )
        self.emit("response_received", request=run.uuid, broker=response.broker_id)
        if len(run.candidates) >= self.config.max_responses:
            self._end_collection(run, reason="max_responses")

    def _on_collection_deadline(self, run: _Run) -> None:
        if run.state not in ("ISSUING", "COLLECTING"):
            return
        if not run.candidates:
            # The whole window elapsed with nothing: walk the fallback
            # chain from wherever we are.
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
            self._send_to_bdn(run)
            return
        self._end_collection(run, reason="timeout")

    # ------------------------------------------------------------------
    # Selection and pinging
    # ------------------------------------------------------------------
    def _end_collection(self, run: _Run, reason: str) -> None:
        run.cancel_timers()
        if run.phases.open_phase == "issue_request":
            # Degenerate: responses arrived before any ack transition.
            self._begin_phase(run, "wait_initial_responses")
        self._begin_phase(run, "process_responses")
        run.state = "SELECTING"
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
                    "candidate_excluded",
                    request=run.uuid,
                    broker=cand.broker_id,
                    missing=",".join(missing),
                )
                continue
            usable.append(cand)
        run.target_set = select_target_set(
            usable,
            self.config.target_set_size,
            required_transports=self._REQUIRED_TRANSPORTS,
        )
        self._begin_phase(run, "ping_target_set")
        run.state = "PINGING"
        self.pinger.clear_samples()
        run.expected_pongs = len(run.target_set) * self.config.ping_repeats
        for target in run.target_set:
            for repeat in range(self.config.ping_repeats):
                self._schedule_aux(
                    run,
                    repeat * _PING_REPEAT_SPACING,
                    self._ping_target,
                    run,
                    target,
                )
        run.ping_timer = self.runtime.schedule(self.config.ping_timeout, self._decide, run)

    def _schedule_aux(self, run: _Run, delay: float, fn, *args) -> None:
        """Schedule run-scoped work whose handle dies with the run."""

        def fire() -> None:
            run.aux_timers.discard(handle)
            fn(*args)

        handle = self.runtime.schedule(delay, fire)
        run.aux_timers.add(handle)

    def _ping_target(self, run: _Run, target: Candidate) -> None:
        if run.state != "PINGING":
            return
        self.pinger.ping(target.udp_endpoint, key=target.broker_id, trace_id=run.uuid)

    def _on_ping_rtt(self, key: str, rtt: float) -> None:
        run = self._run
        if run is None or run.state != "PINGING":
            return
        # Samples were cleared when the ping phase began, so the total
        # retained sample count is the pong count for this run.
        received = sum(self.pinger.sample_count(t.broker_id) for t in run.target_set)
        if received >= run.expected_pongs:
            self._decide(run)
            return
        # Every target has answered at least once: a lost straggler
        # repeat should not stall the phase until the hard timeout, so
        # re-arm a short grace deadline instead.
        if all(self.pinger.sample_count(t.broker_id) > 0 for t in run.target_set):
            if run.ping_timer is not None:
                run.ping_timer.cancel()
            run.ping_timer = self.runtime.schedule(self.config.ping_grace, self._decide, run)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def _decide(self, run: _Run) -> None:
        if run.state != "PINGING":
            return
        run.state = "DECIDING"
        if run.ping_timer is not None:
            run.ping_timer.cancel()
            run.ping_timer = None
        self._begin_phase(run, "final_decision")
        self._schedule_aux(run, _DECIDE_COST, self._complete, run)

    def _complete(self, run: _Run) -> None:
        run.cancel_timers()
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
            threshold = (
                best_rtt * (1.0 + self.config.ping_tie_relative)
                + self.config.ping_tie_absolute
            )
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
        run.phases.close()
        outcome = DiscoveryOutcome(
            success=selected is not None,
            selected=selected,
            selected_rtt=selected_rtt,
            candidates=sorted(run.candidates.values(), key=lambda c: c.broker_id),
            target_set=run.target_set,
            ping_rtts=ping_rtts,
            phases=run.phases,
            total_time=self.runtime.now - run.started_at,
            via=run.via,
            bdn_used=run.bdn_used,
            transmissions=run.transmissions,
            request_uuid=run.uuid,
        )
        if selected is not None:
            self.last_target_set = [
                CachedTarget(
                    broker_id=t.broker_id,
                    host=t.udp_endpoint.host,
                    udp_port=t.udp_endpoint.port,
                )
                for t in run.target_set
            ]
            self.last_selected = CachedTarget(
                broker_id=selected.broker_id,
                host=selected.udp_endpoint.host,
                udp_port=selected.udp_endpoint.port,
            )
        run.state = "DONE" if outcome.success else "FAILED"
        self._run = None
        self._record_outcome(run, outcome)
        self.emit("discover_done", request=run.uuid, success=outcome.success)
        run.on_complete(outcome)

    def _fail(self, run: _Run) -> None:
        run.cancel_timers()
        run.phases.close()
        outcome = DiscoveryOutcome(
            success=False,
            selected=None,
            selected_rtt=None,
            candidates=[],
            target_set=[],
            ping_rtts={},
            phases=run.phases,
            total_time=self.runtime.now - run.started_at,
            via=run.via,
            bdn_used=run.bdn_used,
            transmissions=run.transmissions,
            request_uuid=run.uuid,
        )
        run.state = "FAILED"
        self._run = None
        self._record_outcome(run, outcome)
        self.emit("discover_failed", request=run.uuid)
        run.on_complete(outcome)

    def _record_outcome(self, run: _Run, outcome: DiscoveryOutcome) -> None:
        """Close the run's flight-recorder trace and publish metrics.

        The ``done`` span carries the run's terminal state; the metrics
        registry (when observability is attached) accumulates outcome
        counters and latency histograms across runs.
        """
        self.emit("done", run.uuid, success=outcome.success, via=run.via)
        if not self.observing:
            return
        registry = self.obs.registry
        name = "discovery.completed" if outcome.success else "discovery.failed"
        registry.counter(name).inc()
        registry.histogram("discovery.total_time").observe(outcome.total_time)
        for phase, duration in run.phases.durations().items():
            registry.histogram(f"discovery.phase.{phase}").observe(duration)
