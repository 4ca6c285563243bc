"""Broker Discovery Nodes.

Section 2 of the paper: BDNs are "registered nodes that facilitate the
discovery of brokers within the broker network".  They hold broker
advertisements, acknowledge discovery requests "in a timely manner"
(section 3), and propagate requests into the broker network
(section 4).  Key properties reproduced here:

* **Optional, non-uniform registration** -- not every broker registers;
  BDNs need not agree; "our scheme will work even if a single broker is
  registered with a given BDN".
* **Injection strategies** -- in a connected network the BDN injects
  the request "simultaneously to the brokers that are closest and
  farthest from the BDN", with distances learned by pinging.  In the
  unconnected topology it has no choice but O(N) fan-out to every
  registered broker, which is exactly the inefficiency Figure 2
  quantifies.
* **Pings that learn something** -- the BDN pings a broker only when
  its injection uses distance, or when no lease vouches for the broker
  (then a ping is how the BDN learns it left).  A leased broker under
  ``injection="all"`` is never pinged and leaves by lease eviction
  alone.  A pinged broker is pruned after ``_PRUNE_MISSED_SWEEPS``
  sweep pings in a row went unanswered -- evidence, not elapsed time,
  so a BDN that stalls forgets nobody.
* **Private BDNs** (section 2.4) -- configured with required
  credentials; requests without them are acknowledged but never
  disseminated.
* **Idempotence** (section 3) -- duplicate transmissions of a request
  are re-acknowledged but not re-disseminated; an explicit
  *retransmission* (attempt+1) is disseminated again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Iterable

import numpy as np

from repro.core.codec import LazyMessage
from repro.core.config import BDNConfig, Endpoint
from repro.core.errors import CodecError
from repro.core.messages import (
    Ack,
    AdvertisementAck,
    AntiEntropyDelta,
    AntiEntropyDigest,
    BrokerAdvertisement,
    DiscoveryBusy,
    DiscoveryRequest,
    LeaseClaim,
    LeaseVote,
    Message,
    PingResponse,
    ReplicaAck,
    ReplicaAppend,
)
from repro.obs import trace_context
from repro.runtime.api import OwnedTimers, Runtime, TimerHandle
from repro.simnet.node import Node
from repro.simnet.service import IngressQueue
from repro.discovery.advertisement import StoredAdvertisement
from repro.discovery.ping import Pinger
from repro.discovery.sharding import ShardedRegistry
from repro.discovery.replication import ReplicationState

__all__ = ["BDN", "BDN_UDP_PORT"]

BDN_UDP_PORT = 7000

# A broker that left this many consecutive sweep pings unanswered is
# considered departed and its advertisement is dropped.
_PRUNE_MISSED_SWEEPS = 3


class BDN(Node):
    """One Broker Discovery Node.

    Parameters
    ----------
    name, host, network, rng:
        Standard node parameters (``network`` is a
        :class:`~repro.runtime.api.Runtime` or a simulated fabric).
    config:
        Injection strategy, interest regions, private-BDN credentials,
        ping sweep interval.
    site, realm, obs:
        Forwarded to :class:`~repro.simnet.node.Node`.
    """

    def __init__(
        self,
        name: str,
        host: str,
        network: Runtime | object,
        rng: np.random.Generator,
        config: BDNConfig | None = None,
        site: str | None = None,
        realm: str | None = None,
        obs=None,
    ) -> None:
        super().__init__(
            name, host, network, rng, site=site, realm=realm, obs=obs
        )
        self.config = config if config is not None else BDNConfig()
        # The registry partitions the advertisement table and the dedup
        # cache by consistent hash of broker id (shards=1, the default,
        # is a single flat table, bit-identical to the paper's BDN).
        # ``self.store`` and ``self.dedup`` are the same objects under
        # their historical names; every consumer keeps the old API.
        self.registry = ShardedRegistry(
            shards=self.config.shards,
            interest_regions=self.config.interest_regions,
        )
        self.store = self.registry
        self.dedup = self.registry.dedup
        self.pinger = Pinger(self, self.endpoint(BDN_UDP_PORT))
        self.pinger.on_rtt = self._on_rtt
        self.alive = False
        # Whether injection reads the distance table; if not, only an
        # unleased broker is pinged (see _measures).
        self._uses_distance = self.config.injection != "all"
        # Sweep pings sent to each broker since its last pong: the
        # evidence a prune is judged on.
        self._unanswered: dict[str, int] = {}
        # The distance table, kept sorted as pongs arrive so a request
        # only reads its two ends (invariant: see _injection_targets).
        self._by_distance: list[tuple[float, str]] = []
        self._distance_key: dict[str, tuple[float, str]] = {}
        # Outstanding timers, cancelled on stop() so a dead BDN leaves
        # nothing ticking in the scheduler.  One lease-sweep series per
        # shard, phase-staggered across the ping interval.
        self._sweep_timers: list[TimerHandle] = []
        self._fanout_timers = OwnedTimers(self.runtime)
        # Optional service-time model: requests queue in a bounded FIFO
        # and, above the admission high-watermark, are refused with a
        # DiscoveryBusy instead of queued.  Built once so the counters
        # span restarts; None (the default) keeps instant processing.
        # One queue whatever the shard count: shards partition the
        # registry and the dedup cache, not the socket.
        self.ingress: IngressQueue | None = None
        if self.config.service is not None:
            self.ingress = IngressQueue(
                self.runtime,
                self._on_udp,
                self.config.service,
                owner=self,
                admit=self._admit,
            )
        # Replicated control plane (None = the paper's island BDN).
        self.replication: ReplicationState | None = None
        if self.config.replication is not None:
            self.replication = ReplicationState(self, self.config.replication)
        self._cold_pending = False
        # Counters.
        self.requests_received = 0
        self.requests_disseminated = 0
        self.credential_rejections = 0
        self.requests_shed = 0
        self.requests_refused_catchup = 0
        self.unknown_messages = 0
        # Invariant guard: counts expired advertisements that were about
        # to be used as dissemination targets.  Lease filtering in
        # :meth:`_injection_targets` must keep this at zero; the chaos
        # harness asserts it.
        self.stale_targets = 0

    @property
    def udp_endpoint(self) -> Endpoint:
        """Where brokers register and clients send discovery requests."""
        return self.endpoint(BDN_UDP_PORT)

    @property
    def queue_depth(self) -> int:
        """Current ingress depth (0 without a service model)."""
        return self.ingress.depth if self.ingress is not None else 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the UDP port and begin periodic distance sweeps.

        Re-run after a fault-injected revival; each start arms exactly
        one sweep series (the previous one is cancelled by
        :meth:`stop`).
        """
        if self.started:
            return
        super().start()
        self.alive = True
        handler = self.ingress.deliver if self.ingress is not None else self._on_udp
        self.runtime.bind_udp(self.udp_endpoint, handler)
        # One sweep series per shard, phases spread evenly across the
        # ping interval so a mega-scale registry amortises its lease
        # work instead of walking every ad in one simulated instant.
        # With shards=1 the single series fires at interval, 2*interval,
        # ... -- exactly the historical schedule.
        interval = self.config.ping_interval
        shards = self.registry.shard_count
        self._sweep_timers = [
            self.runtime.call_every(
                interval,
                self._sweep_shard,
                i,
                first_delay=interval * (i + 1) / shards,
            )
            for i in range(shards)
        ]
        if self.replication is not None:
            self.replication.start(cold=self._cold_pending)
        self._cold_pending = False
        self.emit("bdn_start")

    def stop(self) -> None:
        """Take the BDN offline (fault injection); idempotent."""
        if not self.alive:
            return
        self.alive = self._started = False  # start() brings it back
        self.runtime.unbind_udp(self.udp_endpoint)
        for timer in self._sweep_timers:
            timer.cancel()
        self._sweep_timers = []
        self._fanout_timers.cancel_all()
        if self.ingress is not None:
            self.ingress.reset()  # a dead process loses its socket buffer
        if self.replication is not None:
            self.replication.stop()
        self.emit("bdn_stop")

    def clear_registry(self) -> None:
        """Wipe the advertisement table: a *cold* restart's disk state.

        Called by the fault injector between :meth:`stop` and
        :meth:`start` to model a process whose in-memory registry (and
        dedup cache, and measured distances) did not survive.  Counters
        are kept -- they describe history, not state.  A replicated BDN
        restarted this way rejoins in catch-up mode: it pulls an
        anti-entropy delta immediately and refuses discovery requests
        (with a leader hint) until repaired or a grace period lapses.
        """
        for stored in self.store.all():
            self.pinger.forget(stored.broker_id)
        self.store.clear()
        self._unanswered.clear()
        self._by_distance.clear()
        self._distance_key.clear()
        self.dedup.reset()
        if self.replication is not None:
            self._cold_pending = True
        self.emit("bdn_cold_restart", f"bdn:{self.name}")

    # ------------------------------------------------------------------
    # UDP dispatch
    # ------------------------------------------------------------------
    def _admit(self, message: Message, src: Endpoint) -> bool:
        """Admission control, run before the ingress queue.

        Above the configured high-watermark new discovery requests are
        refused with an immediate :class:`DiscoveryBusy` -- the cheap
        "come back later" answer -- instead of being queued behind work
        the BDN cannot finish in time.  Advertisements, pings and other
        traffic are never shed here (they are what keeps the BDN's view
        of the network alive); the bounded queue still drops them when
        completely full.
        """
        watermark = self.config.admission_high_watermark
        if (
            watermark <= 0
            or not isinstance(message, DiscoveryRequest)
            or self.queue_depth < watermark
        ):
            return True
        self.requests_shed += 1
        busy = self._refuse(message)
        self.emit(
            "bdn_busy", message.uuid if message.trace_flag else "", hop=busy.trace_hop,
            depth=self.queue_depth, retry_after=busy.retry_after,
        )
        return False

    _REPLICATION_DISPATCH = {
        LeaseClaim: "on_lease_claim",
        LeaseVote: "on_lease_vote",
        ReplicaAppend: "on_replica_append",
        ReplicaAck: "on_replica_ack",
        AntiEntropyDigest: "on_digest",
        AntiEntropyDelta: "on_delta",
    }

    def _on_udp(self, message: Message | LazyMessage, src: Endpoint) -> None:
        if not self.alive:
            return
        if type(message) is LazyMessage:
            # A runtime may hand us an unmaterialised wire view.  An
            # undecodable buffer must not crash the ingress-queue
            # handler -- count it like any other protocol error.
            try:
                message = message.message
            except CodecError as exc:
                self.unknown_messages += 1
                self.emit("bdn_unknown_message", type=f"undecodable(tag={exc.tag})")
                return
        if isinstance(message, BrokerAdvertisement):
            self._register(message, src)
        elif isinstance(message, DiscoveryRequest):
            self._handle_request(message)
        elif isinstance(message, PingResponse):
            self.pinger.on_response(message, src)
        elif type(message) in self._REPLICATION_DISPATCH and self.replication is not None:
            replication = self.replication
            if message.group != replication.config.group:
                # Another group's traffic on a shared port: never acted on.
                replication.foreign_group_messages += 1
            else:
                getattr(replication, self._REPLICATION_DISPATCH[type(message)])(message, src)
        else:
            # Anything else on the discovery port is a protocol error
            # (or a stale/misrouted datagram): count it and drop it
            # instead of silently ignoring it.
            self.unknown_messages += 1
            self.emit("bdn_unknown_message", type=type(message).__name__)

    def _register(self, ad: BrokerAdvertisement, src: Endpoint | None = None) -> None:
        if ad.trace_flag and self.observing:
            self.emit("recv", f"ad:{ad.broker_id}", hop=ad.trace_hop, kind="BrokerAdvertisement")
        if self.store.accept(ad, self.runtime.now):
            entered = self._track(ad.broker_id)
            self.emit("bdn_registered", broker=ad.broker_id)
            if entered:
                # A broker entering the registry is measured right away,
                # so the closest/farthest injection has its distance.  A
                # renewal is left to the sweep: it costs one datagram.
                self._ping_on_entry(ad.broker_id)
            if self.replication is not None:
                # Ack the direct path so the broker's heartbeat can
                # re-home to the group leader, then replicate the write.
                if src is not None:
                    self.runtime.send_udp(
                        self.udp_endpoint,
                        src,
                        AdvertisementAck(
                            broker_id=ad.broker_id,
                            bdn=self.name,
                            leader_hint=self.replication.leader_hint(),
                        ),
                    )
                self.replication.on_local_write(ad)

    def apply_replicated(self, ad: BrokerAdvertisement) -> bool:
        """Apply an advertisement received via replication/anti-entropy.

        Unlike the broker-facing :meth:`_register` path this is
        *conditional*: an entry only overwrites when its lease is newer
        (newest-lease-wins), so a delayed append can never roll a
        renewed lease backwards.  Returns True if the store changed.
        """
        if not self.alive:
            return False
        now = self.runtime.now
        if not self.store.accept_if_newer(ad, now):
            return False
        entered = self._track(ad.broker_id)
        self.emit("bdn_registered", broker=ad.broker_id, via="replication")
        if entered:
            self._ping_on_entry(ad.broker_id)
        return True

    # ------------------------------------------------------------------
    # Discovery requests
    # ------------------------------------------------------------------
    def _refuse(self, request: DiscoveryRequest) -> DiscoveryBusy:
        """Answer ``request`` with a :class:`DiscoveryBusy`.

        "Come back after ``busy_retry_after``", with the current group
        leader as a ``"host:port"`` hint (``""`` unreplicated).
        """
        busy = DiscoveryBusy(
            request_uuid=request.uuid,
            bdn=self.name,
            retry_after=self.config.busy_retry_after,
            queue_depth=self.queue_depth,
            trace_flag=request.trace_flag,
            trace_hop=request.trace_hop + 1 if request.trace_flag else 0,
            leader_hint=self.replication.leader_hint() if self.replication is not None else "",
        )
        requester = Endpoint(request.requester_host, request.requester_port)
        self.runtime.send_udp(self.udp_endpoint, requester, busy)
        return busy

    def _handle_request(self, request: DiscoveryRequest) -> None:
        self.requests_received += 1
        traced_req = request.trace_flag and self.observing
        if traced_req:
            self.emit("recv", request.uuid, hop=request.trace_hop, kind="DiscoveryRequest")
        if self.replication is not None and not self.replication.serving:
            # Cold-restarted member still catching up: an empty (or
            # partial) registry would disseminate to nobody and the
            # request would die here.  Redirect the client instead.
            self.requests_refused_catchup += 1
            busy = self._refuse(request)
            self.emit(
                "bdn_catchup_refused", request.uuid if request.trace_flag else "",
                hop=busy.trace_hop, retry_after=busy.retry_after,
            )
            return
        # Timely acknowledgement (section 3), even for duplicates.
        requester = Endpoint(request.requester_host, request.requester_port)
        self.runtime.send_udp(self.udp_endpoint, requester, Ack(uuid=request.uuid, acked_by=self.name))
        if traced_req:
            self.emit("send", request.uuid, hop=request.trace_hop, kind="Ack")
        if self.dedup.seen((request.uuid, request.attempt)):
            if traced_req:
                self.emit("dup_suppressed", request.uuid, hop=request.trace_hop, kind="DiscoveryRequest")
            return  # idempotent: duplicate of an already-disseminated copy
        if self.config.required_credentials and not (
            request.credentials & self.config.required_credentials
        ):
            self.credential_rejections += 1
            self.emit("bdn_credential_reject", request=request.uuid)
            return
        self._disseminate(request)

    def _disseminate(self, request: DiscoveryRequest) -> None:
        targets = self._injection_targets()
        # Defence in depth: _injection_targets already lease-filters, so
        # an expired target here means the filtering broke.  Count it
        # (the chaos invariants assert zero) and refuse to use it.
        now = self.runtime.now
        stale = [s for s in targets if s.is_expired(now)]
        if stale:
            self.stale_targets += len(stale)
            targets = [s for s in targets if not s.is_expired(now)]
        if not targets:
            self.emit("bdn_no_brokers", request=request.uuid)
            return
        self.requests_disseminated += 1
        forwarded = request.forwarded()
        # Sequential fan-out: each destination costs CPU at the BDN, so
        # O(N) distribution (unconnected topology) is visibly linear.
        # Each pending send is tracked so stop() can cancel it -- a BDN
        # killed mid-fan-out must not keep transmitting.
        for i, stored in enumerate(targets):
            self._fanout_timers.schedule(
                self.config.fanout_delay * (i + 1),
                self._fire_fanout,
                stored.udp_endpoint,
                forwarded,
                stored.broker_id,
            )
        self.emit("bdn_disseminate", request=request.uuid, targets=len(targets))

    def _fire_fanout(self, key: int, dst: Endpoint, message: Message, broker_id: str) -> None:
        self._fanout_timers.pop(key)
        ctx = trace_context(message) if self.observing else None
        if ctx is not None:
            self.emit("inject", ctx[0], hop=ctx[1], broker=broker_id)
        self.runtime.send_udp(self.udp_endpoint, dst, message)

    def _injection_targets(self) -> list[StoredAdvertisement]:
        """Pick the brokers this BDN injects a request at.

        ``all``: every registered broker (O(N)).
        ``closest_farthest``: the two extremes of the measured distance
        table, closest first (section 4's scheme to make the request
        "propagate faster through the broker network").
        ``single``: just the closest broker.

        The extremes are the ends of ``_by_distance``, which holds
        exactly the registry's broker ids, each at the key
        ``(mean RTT or inf, broker id)`` -- so a broker without RTT data
        yet sorts last, by id.  Leases lapse with time, not with an
        event: an end entry whose lease has expired (or whose ad is
        gone) is skipped, so a stale broker is never disseminated to
        even between eviction sweeps.
        """
        now = self.runtime.now
        if self.config.injection == "all":
            return self.store.all(now)
        closest = self._first_live(self._by_distance, now)
        if closest is None:
            return []
        if self.config.injection == "single":
            return [closest]
        farthest = self._first_live(reversed(self._by_distance), now)
        return [closest] if farthest is closest else [closest, farthest]

    def _first_live(
        self, order: Iterable[tuple[float, str]], now: float
    ) -> StoredAdvertisement | None:
        for _, broker_id in order:
            stored = self.store.get(broker_id)
            if stored is not None and not stored.is_expired(now):
                return stored
        return None

    def _track(self, broker_id: str) -> bool:
        """Index a broker id entering the registry; True if it entered.

        An id enters with its first stored ad, and again after a lease
        eviction, a prune or :meth:`clear_registry`.  That is when the
        BDN pings it (if :meth:`_measures` says so); a renewal of an
        indexed id is the sweep's to measure.
        """
        if broker_id in self._distance_key:
            return False
        self._index(broker_id)
        return True

    def _measures(self, stored: StoredAdvertisement) -> bool:
        """Whether the BDN pings ``stored``'s broker, on entry and on sweeps.

        A ping learns a distance, which only closest/farthest and single
        injection read, or learns that a broker is gone, which a lease
        already tells for a leased one.  So a leased broker under
        ``injection="all"`` is never pinged: it leaves by lease eviction.
        """
        return self._uses_distance or stored.expires_at == math.inf

    def _ping_on_entry(self, broker_id: str) -> None:
        stored = self.store.get(broker_id)
        if self._measures(stored):
            self.pinger.ping(stored.udp_endpoint, key=broker_id)

    def _forget(self, broker_id: str) -> None:
        """Drop everything kept about a broker that left the registry."""
        self._unanswered.pop(broker_id, None)
        self.pinger.forget(broker_id)
        self._unindex(broker_id)

    def _on_rtt(self, broker_id: str, rtt: float) -> None:
        # A pong that outlives its broker's registration moves nothing.
        if broker_id in self._distance_key:
            self._unanswered.pop(broker_id, None)
            self._index(broker_id)

    def _index(self, broker_id: str) -> None:
        """(Re)position ``broker_id`` at its current mean RTT."""
        self._unindex(broker_id)
        rtt = self.pinger.average_rtt(broker_id)
        key = (rtt if rtt is not None else float("inf"), broker_id)
        self._distance_key[broker_id] = key
        insort(self._by_distance, key)

    def _unindex(self, broker_id: str) -> None:
        key = self._distance_key.pop(broker_id, None)
        if key is not None:
            del self._by_distance[bisect_left(self._by_distance, key)]

    # ------------------------------------------------------------------
    # Distance sweeps
    # ------------------------------------------------------------------
    def _sweep_shard(self, index: int) -> None:
        """One shard's sweep: evict lapsed leases, prune, ping survivors.

        Only brokers the BDN measures (:meth:`_measures`) are pruned and
        pinged.  Before pinging one, the sweep prunes it if it left the
        last ``_PRUNE_MISSED_SWEEPS`` sweep pings unanswered: the count
        is of pings sent, so a sweep that comes late (a stalled loop)
        prunes nobody, while a partition still does, because its pings
        go out and are lost.

        With a single shard this is exactly the historical global sweep.
        With many, each series owns one partition of the table, so the
        per-tick work is ~1/shards of the registry and the phases are
        staggered across the ping interval by :meth:`start`.
        """
        if not self.alive:
            return
        now = self.runtime.now
        shard = self.registry.shard(index)
        for broker_id in shard.evict_expired(now):
            self._forget(broker_id)
            self.emit("bdn_lease_expired", broker=broker_id)
        unanswered = self._unanswered
        for stored in shard.all():
            if not self._measures(stored):
                continue
            broker_id = stored.broker_id
            missed = unanswered.get(broker_id, 0)
            if missed >= _PRUNE_MISSED_SWEEPS:
                shard.remove(broker_id)
                self._forget(broker_id)
                self.emit("bdn_pruned", broker=broker_id)
                continue
            unanswered[broker_id] = missed + 1
            self.pinger.ping(stored.udp_endpoint, key=broker_id)

    def distance_table(self) -> dict[str, float]:
        """Measured average RTT per registered broker (seconds).

        A broker without a measurement has no entry -- among them every
        leased broker under ``injection="all"``, which is never pinged.
        """
        table: dict[str, float] = {}
        for stored in self.store.all():
            rtt = self.pinger.average_rtt(stored.broker_id)
            if rtt is not None:
                table[stored.broker_id] = rtt
        return table
