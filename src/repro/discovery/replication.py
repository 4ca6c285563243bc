"""Replicated BDN control plane.

The paper treats every BDN as an island: "our scheme will work even if
a single broker is registered with a given BDN", and inter-BDN
disagreement is tolerated rather than repaired.  That is fine for
discovery *correctness* but not for *availability*: a BDN restart or a
partition wipes (or freezes) its advertisement registry and its realm
suffers a discovery blackout until every broker's heartbeat comes back
around.  This module turns a set of BDNs into a replication group, in
the spirit of the replicated discovery tiers of related systems
(multi-replica grid discovery services, federated broker registries):

* **Lease-based leader election.**  A candidate claims leadership of
  the group for ``lease_duration`` seconds; every member grants at most
  one candidate per overlapping window, so any two quorums intersect
  and *no two leaders can ever hold overlapping valid leases* (the
  election-safety invariant the chaos harness asserts).  The leader's
  own belief in its lease is computed from claim *send* times, which
  always expires no later than any voter's receipt-measured grant.
  Election timeouts are staggered by member index -- deterministic
  under :class:`~repro.runtime.sim.SimRuntime` (no randomness is
  drawn) and plain wall-clock under the asyncio runtime.
* **Log-style replication.**  The leader applies each accepted
  advertisement to its own registry first (read-your-own-ads: a broker
  that renews its heartbeat with the leader is immediately visible to
  discovery there), assigns it a sequence number, and fans a
  :class:`~repro.core.messages.ReplicaAppend` to the standbys.  A write
  is *committed* once a quorum of members (leader included) has applied
  it; commit latency and replication lag are exported as metrics.
  Followers also keep accepting direct broker traffic -- availability
  over strict single-writer purity -- and anti-entropy reconciles the
  difference.
* **Anti-entropy repair.**  Every member periodically sends each peer a
  digest of its registry: which renewal of each broker it holds, named
  by the broker's own stamp (``issued_at``).  The peer answers with
  every advertisement the digester lacks, and with any it holds another
  renewal of once the peer's own copy is a period old (younger, it may
  still be on its way as an append).  The receiver books a renewal it
  does not hold yet if its lease outlives the current entry
  (*newest-lease-wins*), and never books one it holds twice.  After a
  partition heals, both sides of the cut therefore converge to the
  union of their registries, minus whatever leases lapsed meanwhile; a
  settled group ships nothing.

Advertisements always travel with *receipt-relative* TTLs (the seconds
remaining at the sender), never absolute deadlines, so no clock offset
between members enters a lease.  A replica books its copy one transit
later than its sender, once per renewal.

A cold-restarted member rejoins with an empty registry: it immediately
digests every peer (pulling a full delta back) and, until the first
exchange completes (or a grace period lapses), answers discovery
requests with a :class:`~repro.core.messages.DiscoveryBusy` carrying a
``leader_hint`` so clients jump straight to a serving member.
"""

from __future__ import annotations

import math

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.config import Endpoint, ReplicationConfig
from repro.core.errors import EndpointParseError
from repro.core.messages import (
    AntiEntropyDelta,
    AntiEntropyDigest,
    BrokerAdvertisement,
    LeaseClaim,
    LeaseVote,
    ReplicaAck,
    ReplicaAppend,
)
from repro.runtime.api import TimerHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.discovery.advertisement import StoredAdvertisement
    from repro.discovery.bdn import BDN

__all__ = ["ReplicationState", "parse_endpoint", "try_parse_endpoint", "MAX_DELTA_ADS"]

#: Ship at most this many advertisements per anti-entropy delta; a
#: bigger registry repairs over several periods (and the truncation is
#: traced, never silent).
MAX_DELTA_ADS = 128

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


def parse_endpoint(text: str) -> Endpoint:
    """Parse a strict ``"host:port"`` string into an :class:`Endpoint`.

    Raises :class:`~repro.core.errors.EndpointParseError` (never a bare
    ``ValueError``) for a missing separator, an empty host, a
    non-decimal port (``int()`` quirks like ``"1_000"`` or ``" 7000"``
    are rejected), or a port outside ``[1, 65535]``.  Wire-facing
    callers that merely *prefer* a well-formed hint should use
    :func:`try_parse_endpoint` instead.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise EndpointParseError(f"endpoint {text!r} has no ':' separator")
    if not host:
        raise EndpointParseError(f"endpoint {text!r} has an empty host")
    if not (port_text.isascii() and port_text.isdecimal()):
        raise EndpointParseError(f"endpoint {text!r} has a non-numeric port")
    port = int(port_text)
    if not 0 < port <= 65535:
        raise EndpointParseError(f"endpoint {text!r} port {port} outside [1, 65535]")
    return Endpoint(host, port)


def try_parse_endpoint(text: str) -> Endpoint | None:
    """:func:`parse_endpoint`, but ``None`` for malformed input.

    The forgiving form for hints heard on the wire: a garbled
    ``leader_hint`` should be ignored, not crash a handler.
    """
    try:
        return parse_endpoint(text)
    except EndpointParseError:
        return None


class ReplicationState:
    """One member's view of its BDN replication group.

    Owned by a :class:`~repro.discovery.bdn.BDN`; all network I/O goes
    through the BDN's runtime and UDP endpoint, so the same engine runs
    simulated and live.
    """

    #: FOLLOWER, CANDIDATE or LEADER.  Every member starts a follower;
    #: :meth:`_become` is the only writer.
    role = FOLLOWER

    def __init__(self, bdn: "BDN", config: ReplicationConfig) -> None:
        self.bdn = bdn
        self.config = config
        self.me = bdn.name
        self.index = config.index_of(self.me)
        self.peers = config.peers_of(self.me)

        self.term = 0
        self.leader: str | None = None
        # The one grant this member may have outstanding; a grant to a
        # peer doubles as that peer's leadership as seen from here.
        self._granted_to: str | None = None
        self._grant_expires = -math.inf
        # Candidate/leader vote bookkeeping: member -> claim send time
        # (this node's clock) of the latest grant received from them.
        self._votes: dict[str, float] = {}

        # Replication log state.
        self.seq = 0
        self.committed_seq = 0
        self._pending: dict[int, set[str]] = {}
        self._append_sent_at: dict[int, float] = {}
        self.peer_acked: dict[str, int] = {}
        self._follower_next_seq = 1
        self._follower_term = -1

        # Catch-up state (cold restarts).
        self.caught_up = True
        self._catchup_deadline = -math.inf

        # Election-safety evidence for the chaos invariants: mutable
        # ``[term, start, until]`` rows, ``until`` extended on renewal.
        self.leadership_intervals: list[list[float]] = []

        # Counters (mirrored into the metrics registry when attached).
        self.elections_started = 0
        self.elections_won = 0
        self.stepdowns = 0
        self.appends_sent = 0
        self.commits = 0
        self.repair_ads_sent = 0
        self.repair_ads_applied = 0
        self.foreign_group_messages = 0

        self._election_timer: TimerHandle | None = None
        self._heartbeat_timer: TimerHandle | None = None
        self._anti_entropy_timer: TimerHandle | None = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, cold: bool = False) -> None:
        """Arm timers; ``cold`` marks the registry as wiped (catch-up)."""
        now = self._now
        self._running = True
        if cold:
            self.caught_up = False
            self._catchup_deadline = now + self.config.catchup_grace
        self._arm_election(now + self.config.lease_duration)
        self._anti_entropy_timer = self.bdn.runtime.call_every(
            self.config.anti_entropy_interval, self._anti_entropy_tick
        )
        if cold:
            # Pull immediately rather than waiting out a full period.
            self._send_digests()

    def stop(self) -> None:
        """Cancel every timer and silently relinquish any role.

        The lease this member granted (or held) is deliberately *not*
        forgotten: a restarting member must keep honouring grants it
        made before crashing, or two leaders could overlap.  State is
        kept in memory because the simulated fault model revives the
        same object; a production port would persist the grant.
        """
        self._running = False
        for handle in (self._election_timer, self._heartbeat_timer, self._anti_entropy_timer):
            if handle is not None:
                handle.cancel()
        self._election_timer = None
        self._heartbeat_timer = None
        self._anti_entropy_timer = None
        self._become(FOLLOWER, "stopped")

    @property
    def _now(self) -> float:
        return self.bdn.runtime.now

    @property
    def serving(self) -> bool:
        """Whether this member should answer discovery requests."""
        return self.caught_up or self._now >= self._catchup_deadline

    def leader_endpoint(self) -> Endpoint | None:
        """The leader this member currently recognises, if any."""
        if self.role == LEADER and self._lease_until() > self._now:
            return self.config.endpoint_of(self.me)
        if self._granted_to not in (None, self.me) and self._grant_expires > self._now:
            return self.config.endpoint_of(self.leader)
        return None

    def leader_hint(self) -> str:
        endpoint = self.leader_endpoint()
        return str(endpoint) if endpoint is not None else ""

    def is_leader(self) -> bool:
        return self.role == LEADER and self._lease_until() > self._now

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def _arm_election(self, horizon: float) -> bool:
        """Arm the election timer for ``horizon`` plus this member's stagger.

        ``horizon`` is when the silence this member tolerates ends: a
        lease from now, or the end of the grant it holds.  The stagger
        is by member index, so elections are deterministic and usually
        uncontested: the surviving member with the lowest index times
        out first and wins before the next one even claims.  Returns
        False, arming nothing, when that moment has already come.
        """
        fire_at = horizon + self.index * self.config.election_stagger
        now = self._now
        if fire_at <= now:
            return False
        if self._election_timer is not None:
            self._election_timer.cancel()
        self._election_timer = self.bdn.runtime.schedule(fire_at - now, self._on_election_timeout)
        return True

    def _on_election_timeout(self) -> None:
        self._election_timer = None
        if not self._running or self.role == LEADER:
            return
        # A renewal may have landed since the timer was armed.
        if not self._arm_election(self._grant_expires):
            self._start_election()

    def _start_election(self) -> None:
        now = self._now
        self.term += 1
        self._become(CANDIDATE)
        self.elections_started += 1
        self._votes = {self.me: now}
        # Self-grant: a candidate is its own first voter, and the grant
        # is as binding as one given to a peer.
        self._granted_to = self.me
        self._grant_expires = now + self.config.lease_duration
        self.bdn.emit("election_started", term=self.term, member=self.me)
        self._claim(now)
        if len(self._votes) >= self.config.quorum_size:
            self._become(LEADER)
        else:
            # Retry (next term) once our own grant has lapsed, staggered
            # so concurrent candidates do not collide forever.
            self._arm_election(self._grant_expires)

    def _claim(self, now: float) -> None:
        """Claim (or, as leader, renew) the lease for this term with every peer."""
        claim = LeaseClaim(
            group=self.config.group,
            candidate=self.me,
            term=self.term,
            duration=self.config.lease_duration,
            sent_at=now,
        )
        for _, endpoint in self.peers:
            self._send(endpoint, claim)

    def _become(self, role: str, why: str = "") -> None:
        """Enter ``role``: the one writer of :attr:`role`.

        Leaving LEADER ends the recorded leadership interval *now*, even
        if the lease had longer to run (e.g. renouncing to a higher
        term): the interval must not outlive the belief.  Entering
        LEADER starts the lease heartbeat and repairs the standbys at
        once, since they may have drifted while there was no leader.
        Entering FOLLOWER drops votes and uncommitted writes and, while
        running, waits a lease (plus stagger) for a leader to show up.
        """
        now = self._now
        if self.role == LEADER and role != LEADER:
            self.stepdowns += 1
            self.bdn.emit("leader_stepdown", term=self.term, member=self.me, why=why)
            self._gauge("replication.is_leader", 0)
            row = self.leadership_intervals[-1]
            row[2] = min(row[2], now)
        self.role = role
        if role == LEADER:
            self.leader = self.me
            self.elections_won += 1
            self.leadership_intervals.append([float(self.term), now, self._lease_until()])
            self.bdn.emit(
                "election_won", f"group:{self.config.group}", term=self.term, member=self.me
            )
            self._gauge("replication.is_leader", 1)
            if self._heartbeat_timer is None:
                self._heartbeat_timer = self.bdn.runtime.call_every(
                    self.config.heartbeat_interval, self._on_heartbeat
                )
            self._send_digests()
        elif role == FOLLOWER:
            self._votes = {}
            self._pending.clear()
            self._append_sent_at.clear()
            if self._heartbeat_timer is not None:
                self._heartbeat_timer.cancel()
                self._heartbeat_timer = None
            if self._running:
                self._arm_election(now + self.config.lease_duration)

    def _lease_until(self) -> float:
        """Conservative end of this node's (candidate/leader) lease.

        The quorum-th most recent claim *send* time plus the lease
        duration: every voter in that quorum granted a lease measured
        from a receipt no earlier than the send, so this node's belief
        always lapses first.
        """
        if len(self._votes) < self.config.quorum_size:
            return -math.inf
        times = sorted(self._votes.values(), reverse=True)
        return times[self.config.quorum_size - 1] + self.config.lease_duration

    def _on_heartbeat(self) -> None:
        """Leader tick: renew the lease (and detect having lost it)."""
        if not self._running or self.role != LEADER:
            return
        now = self._now
        if self._lease_until() <= now:
            self._become(FOLLOWER, "lease lapsed")
            return
        # Renew the self-grant with the self-vote: a leader whose own
        # grant had lapsed would grant a same-term claim from a member
        # that missed its election, and both would lead that term.
        self._votes[self.me] = now
        self._grant_expires = now + self.config.lease_duration
        self._claim(now)
        self.leadership_intervals[-1][2] = self._lease_until()
        self._gauge("replication.lag", self.seq - self.committed_seq)

    def on_lease_claim(self, claim: LeaseClaim, src: Endpoint) -> None:
        now = self._now
        if claim.term > self.term:
            self.term = claim.term
            if self.role != FOLLOWER:
                self._become(FOLLOWER, f"higher term from {claim.candidate}")
        granted = False
        grant_active = self._grant_expires > now and self._granted_to is not None
        if claim.term < self.term:
            pass  # stale candidate; deny with a hint below
        elif grant_active and self._granted_to != claim.candidate:
            pass  # exclusive window already promised to someone else
        else:
            granted = True
            self._granted_to = claim.candidate
            self._grant_expires = now + claim.duration
            # Witnessing a (probable) leader's claim doubles as its
            # liveness signal; push our election timeout out.
            self.leader = claim.candidate
            if self.role == CANDIDATE:
                self._become(FOLLOWER)
            self._arm_election(self._grant_expires)
        self.bdn.emit(
            "lease_granted" if granted else "lease_denied",
            term=claim.term,
            candidate=claim.candidate,
        )
        vote = LeaseVote(
            group=self.config.group,
            voter=self.me,
            term=claim.term,
            granted=granted,
            claim_sent_at=claim.sent_at,
            leader_hint=self.leader_hint(),
        )
        self._send(src, vote)

    def on_lease_vote(self, vote: LeaseVote, src: Endpoint) -> None:
        if vote.term != self.term or self.role == FOLLOWER:
            return
        if not vote.granted:
            return
        # The echoed send time is this node's own clock; it anchors the
        # lease conservatively at claim *transmission*.
        previous = self._votes.get(vote.voter, -math.inf)
        self._votes[vote.voter] = max(previous, vote.claim_sent_at)
        if self.role == CANDIDATE and len(self._votes) >= self.config.quorum_size:
            self._become(LEADER)
        elif self.role == LEADER:
            self.leadership_intervals[-1][2] = self._lease_until()

    # ------------------------------------------------------------------
    # Log replication
    # ------------------------------------------------------------------
    def on_local_write(self, ad: BrokerAdvertisement) -> None:
        """The BDN accepted ``ad`` into its own registry.

        Leader: replicate it.  Follower/candidate: keep it local (the
        broker will re-home to the leader via the advertisement ack,
        and anti-entropy reconciles anything that slips through).
        """
        if not self.is_leader():
            return
        now = self._now
        self.seq += 1
        append = ReplicaAppend(
            group=self.config.group,
            leader=self.me,
            term=self.term,
            seq=self.seq,
            ad=self._wire_ad(self.bdn.store.get(ad.broker_id), now),
        )
        self._pending[self.seq] = {self.me}
        self._append_sent_at[self.seq] = now
        self.appends_sent += 1
        self._count("replication.appends")
        for _, endpoint in self.peers:
            self._send(endpoint, append)
        if self.config.quorum_size <= 1:
            self._commit(self.seq)
        self._gauge("replication.lag", self.seq - self.committed_seq)

    def on_replica_append(self, append: ReplicaAppend, src: Endpoint) -> None:
        if append.term < self.term:
            self.bdn.emit("replica_stale_term", term=append.term, leader=append.leader)
            return
        now = self._now
        if append.term > self.term:
            self.term = append.term
            if self.role != FOLLOWER:
                self._become(FOLLOWER, f"append from newer leader {append.leader}")
        self.leader = append.leader
        if append.term != self._follower_term:
            self._follower_term = append.term
            self._follower_next_seq = append.seq  # new leader, new log
        if append.seq > self._follower_next_seq:
            # Missed appends (loss or late join): pull a repair rather
            # than waiting for the next scheduled pass.
            self.bdn.emit(
                "replica_gap", expected=self._follower_next_seq, got=append.seq
            )
            self._send(src, self._digest_message(now))
        self._follower_next_seq = max(self._follower_next_seq, append.seq) + 1
        self.bdn.apply_replicated(append.ad)
        self._send(
            src,
            ReplicaAck(
                group=self.config.group, member=self.me, term=append.term, seq=append.seq
            ),
        )

    def on_replica_ack(self, ack: ReplicaAck, src: Endpoint) -> None:
        if self.role != LEADER or ack.term != self.term:
            return
        self.peer_acked[ack.member] = max(self.peer_acked.get(ack.member, 0), ack.seq)
        acked = self._pending.get(ack.seq)
        if acked is None:
            return
        acked.add(ack.member)
        if len(acked) >= self.config.quorum_size:
            self._commit(ack.seq)

    def _commit(self, seq: int) -> None:
        self._pending.pop(seq, None)
        sent_at = self._append_sent_at.pop(seq, None)
        self.committed_seq = max(self.committed_seq, seq)
        self.commits += 1
        self.bdn.emit("replica_commit", f"group:{self.config.group}", seq=seq)
        if sent_at is not None:
            self._observe("replication.commit_latency", self._now - sent_at)
        self._gauge("replication.lag", self.seq - self.committed_seq)

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def _anti_entropy_tick(self) -> None:
        if not self._running:
            return
        self._send_digests()
        if not self.caught_up and self._now >= self._catchup_deadline:
            # Grace lapsed with no delta (e.g. every peer is dead);
            # serve what we have rather than refusing forever.
            self.caught_up = True
            self.bdn.emit("bdn_caught_up", via="grace")

    def _send_digests(self) -> None:
        digest = self._digest_message(self._now)
        for _, endpoint in self.peers:
            self._send(endpoint, digest)

    def _digest_message(self, now: float) -> AntiEntropyDigest:
        """Which renewal of each live registration this member holds."""
        entries = tuple(
            (stored.broker_id, stored.advertisement.issued_at)
            for stored in self.bdn.store.all(now)
        )
        return AntiEntropyDigest(group=self.config.group, member=self.me, entries=entries)

    def on_digest(self, digest: AntiEntropyDigest, src: Endpoint) -> None:
        """Ship what the digest's sender lacks, or holds another renewal of.

        A renewal is named by its broker's own stamp, so two members
        holding the same one agree exactly, whatever each booked for it.
        Another renewal is shipped only once this copy is a period old:
        a younger one may still be on its way to the sender as an append.
        """
        now = self._now
        theirs = dict(digest.entries)
        grace = self.config.anti_entropy_interval
        ads: list[BrokerAdvertisement] = []
        truncated = 0
        for stored in self.bdn.store.all(now):
            stamp = theirs.get(stored.broker_id)
            if stamp is not None and (
                stamp == stored.advertisement.issued_at or now - stored.received_at < grace
            ):
                continue
            if len(ads) >= MAX_DELTA_ADS:
                truncated += 1
                continue
            ads.append(self._wire_ad(stored, now))
        if truncated:
            self.bdn.emit("anti_entropy_truncated", dropped=truncated)
        self.repair_ads_sent += len(ads)
        self._count("replication.repair_ads_sent", len(ads))
        # Always answer, even with an empty delta: a catching-up member
        # treats any delta as "the peer has nothing newer for me".
        self._send(
            src,
            AntiEntropyDelta(group=self.config.group, member=self.me, ads=tuple(ads)),
        )

    def on_delta(self, delta: AntiEntropyDelta, src: Endpoint) -> None:
        applied = 0
        for ad in delta.ads:
            if self.bdn.apply_replicated(ad):
                applied += 1
        self.repair_ads_applied += applied
        if applied:
            self._count("replication.repair_ads_applied", applied)
            self.bdn.emit(
                "repair", f"group:{self.config.group}", ads=applied, peer=delta.member
            )
        if not self.caught_up:
            self.caught_up = True
            self.bdn.emit("bdn_caught_up", via="anti_entropy", ads=applied)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wire_ad(stored: StoredAdvertisement, now: float) -> BrokerAdvertisement:
        """``stored`` as shipped: the broker's own ``issued_at`` (the
        renewal's identity), the lease seconds left here as ``ttl``, and
        no trace context -- that never crosses replication."""
        remaining = 0.0 if stored.expires_at == math.inf else max(stored.expires_at - now, 0.0)
        return replace(stored.advertisement, ttl=remaining, trace_flag=False, trace_hop=0)

    def _send(self, dst: Endpoint, message) -> None:
        self.bdn.runtime.send_udp(self.bdn.udp_endpoint, dst, message)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.bdn.observing:
            self.bdn.obs.registry.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        if self.bdn.observing:
            self.bdn.obs.registry.gauge(name).set(value)

    def _observe(self, name: str, value: float) -> None:
        if self.bdn.observing:
            self.bdn.obs.registry.histogram(name).observe(value)
