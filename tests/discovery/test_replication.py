"""The replicated BDN control plane: elections, replication, repair.

Covers lease-based leader election (deterministic staggered timeouts,
single-leader safety, failover on leader death), quorum-gated log
replication of the advertisement table, the leader-following group
heartbeat on brokers, the cold-restart catch-up protocol, client-side
leader-hint honoring (including the breaker half-open flip), and
anti-entropy convergence after partitions -- under SimRuntime, plus a
loopback AioRuntime convergence smoke.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import (
    BDNConfig,
    ClientConfig,
    ConfigError,
    Endpoint,
    ReplicationConfig,
    RetryPolicyConfig,
)
from repro.core.invariants import SIM_ELECTION_EPS, bdn_evidence, election_safety
from repro.core.messages import (
    AntiEntropyDelta,
    BrokerAdvertisement,
    DiscoveryBusy,
    DiscoveryRequest,
)
from repro.discovery.advertisement import (
    AdvertisementStore,
    advertise_direct,
    build_advertisement,
)
from repro.discovery.bdn import BDN, BDN_UDP_PORT
from repro.discovery.chaos import ChaosWorld
from repro.discovery.faults import FaultInjector
from repro.core.errors import EndpointParseError
from repro.discovery.replication import (
    FOLLOWER,
    LEADER,
    parse_endpoint,
    try_parse_endpoint,
)
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import run_discovery_once
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.substrate.builder import BrokerNetwork

#: Tight timers so elections and repairs land within a few virtual
#: seconds: 2 s leases renewed every 0.5 s, 0.25 s election stagger,
#: 1 s anti-entropy period.
LEASE = 2.0
HEARTBEAT = 0.5
STAGGER = 0.25
ANTI_ENTROPY = 1.0

RETRY_POLICY = RetryPolicyConfig(
    budget_capacity=8,
    budget_refill_per_sec=1.0,
    backoff_base=0.25,
    backoff_cap=2.0,
    breaker_failures=3,
    breaker_cooldown=1.0,
)


def replication_config(n: int = 3, **overrides) -> ReplicationConfig:
    defaults = dict(
        group="g0",
        members=tuple((f"d{j}", Endpoint(f"d{j}.host", BDN_UDP_PORT)) for j in range(n)),
        lease_duration=LEASE,
        heartbeat_interval=HEARTBEAT,
        election_stagger=STAGGER,
        anti_entropy_interval=ANTI_ENTROPY,
    )
    defaults.update(overrides)
    return ReplicationConfig(**defaults)


class GroupWorld:
    """Three replicated BDNs, a few brokers, one client."""

    def __init__(
        self,
        seed: int = 0,
        n_brokers: int = 3,
        n_replicas: int = 3,
        heartbeats: bool = True,
        heartbeat_interval: float = 1.0,
        lease_ttl: float = 4.0,
    ) -> None:
        self.net = BrokerNetwork(
            seed=seed,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=NoLoss(),
        )
        self.brokers = []
        self.responders = {}
        for i in range(n_brokers):
            broker = self.net.add_broker(f"b{i}", site=f"s{i}", realm="lab")
            self.responders[broker.name] = DiscoveryResponder(broker)
            self.brokers.append(broker)
        config = BDNConfig(
            injection="all", ping_interval=2.0, replication=replication_config(n_replicas)
        )
        self.bdns = []
        for j in range(n_replicas):
            bdn = BDN(
                f"d{j}",
                f"d{j}.host",
                self.net.network,
                np.random.default_rng(seed * 101 + j + 1),
                config=config,
                site=f"bdn-s{j}",
                realm="lab",
                obs=self.net.obs,
            )
            bdn.start()
            self.bdns.append(bdn)
        self.endpoints = tuple(b.udp_endpoint for b in self.bdns)
        if heartbeats:
            for broker in self.brokers:
                self.responders[broker.name].attach_heartbeat(
                    self.endpoints, interval=heartbeat_interval, ttl=lease_ttl
                )
        self.client = DiscoveryClient(
            "c0",
            "c0.host",
            self.net.network,
            np.random.default_rng(seed * 101 + 99),
            config=ClientConfig(
                bdn_endpoints=self.endpoints,
                response_timeout=1.0,
                retransmit_interval=0.5,
                max_retransmits=1,
                max_responses=n_brokers,
                target_set_size=min(3, n_brokers),
                ping_repeats=2,
                ping_timeout=0.5,
                require_ping_evidence=True,
                retry_policy=RETRY_POLICY,
            ),
            site="client-site",
            realm="lab",
            obs=self.net.obs,
        )
        self.client.start()
        self.injector = FaultInjector(self.net.network)
        # Links, NTP, the first election, and a heartbeat round.
        self.net.settle(8.0)

    @property
    def sim(self):
        return self.net.sim

    def leaders(self) -> list[BDN]:
        return [b for b in self.bdns if b.replication.is_leader()]

    def leader(self) -> BDN:
        (leader,) = self.leaders()
        return leader

    def followers(self) -> list[BDN]:
        return [b for b in self.bdns if not b.replication.is_leader()]

    def discover(self):
        return run_discovery_once(self.client)


@pytest.fixture
def group() -> GroupWorld:
    return GroupWorld()


def election_breaches(bdns) -> list:
    """The chaos harness's election-safety verdict over these members."""
    return election_safety(bdn_evidence(bdns).intervals, SIM_ELECTION_EPS)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class TestReplicationConfig:
    def test_quorum_defaults_to_majority(self):
        assert replication_config(3).quorum_size == 2
        assert replication_config(5).quorum_size == 3

    def test_catchup_grace_defaults_to_two_periods(self):
        assert replication_config(3).catchup_grace == 2 * ANTI_ENTROPY

    def test_membership_helpers(self):
        cfg = replication_config(3)
        assert cfg.index_of("d1") == 1
        assert cfg.endpoint_of("d2") == Endpoint("d2.host", BDN_UDP_PORT)
        assert [name for name, _ in cfg.peers_of("d0")] == ["d1", "d2"]
        with pytest.raises(ConfigError):
            cfg.index_of("ghost")

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            replication_config(3, heartbeat_interval=LEASE)  # must renew before expiry
        with pytest.raises(ConfigError):
            ReplicationConfig(group="g", members=())

    def test_parse_endpoint(self):
        assert parse_endpoint("d0.host:7000") == Endpoint("d0.host", 7000)
        for bad in ("", "no-port", ":7000", "host:not-a-port", "host:", "host:0", "host:65536"):
            with pytest.raises(EndpointParseError):
                parse_endpoint(bad)

    def test_try_parse_endpoint(self):
        assert try_parse_endpoint("d0.host:7000") == Endpoint("d0.host", 7000)
        assert try_parse_endpoint("") is None
        assert try_parse_endpoint("no-port") is None
        assert try_parse_endpoint(":7000") is None
        assert try_parse_endpoint("host:not-a-port") is None
        assert try_parse_endpoint("host:70000") is None


# ---------------------------------------------------------------------------
# Leader election
# ---------------------------------------------------------------------------
class TestElection:
    def test_exactly_one_leader(self, group):
        assert len(group.leaders()) == 1
        for follower in group.followers():
            assert follower.replication.role == FOLLOWER
            assert follower.replication.leader == group.leader().name

    def test_first_member_wins_the_first_election(self, group):
        # Deterministic staggered timeouts: d0's fires first, and its
        # claims land before anyone else's timeout -- no randomness.
        assert group.leader().name == "d0"

    def test_leadership_is_stable_without_faults(self, group):
        leader = group.leader()
        term = leader.replication.term
        group.sim.run_for(20.0)
        assert group.leader() is leader
        assert leader.replication.term == term
        assert leader.replication.elections_won == 1

    def test_failover_after_leader_death(self, group):
        old = group.leader()
        group.injector.kill_bdn(old)
        # Survivors must wait out the old lease plus their stagger.
        group.sim.run_for(LEASE + 3 * STAGGER + 1.0)
        replacement = group.leader()
        assert replacement is not old
        assert replacement.replication.term > old.replication.term
        assert election_breaches(group.bdns) == []

    def test_revived_leader_rejoins_as_follower(self, group):
        old = group.leader()
        group.injector.kill_bdn(old)
        group.sim.run_for(LEASE + 3 * STAGGER + 1.0)
        replacement = group.leader()
        group.injector.revive_bdn(old)
        group.sim.run_for(2 * HEARTBEAT + 1.0)
        assert group.leader() is replacement
        assert old.replication.role == FOLLOWER
        assert old.replication.leader == replacement.name
        assert election_breaches(group.bdns) == []

    def test_minority_partition_cannot_elect(self, group):
        follower = group.followers()[0]
        hosts = [b.host for b in group.brokers] + [
            b.host for b in group.bdns if b is not follower
        ] + [group.client.host]
        group.injector.partition((follower.host,), tuple(hosts))
        group.sim.run_for(3 * LEASE)
        # The isolated member may claim forever; with no quorum it must
        # never believe itself leader.
        assert not follower.replication.is_leader()
        assert len(group.leaders()) == 1
        group.injector.heal()
        group.sim.run_for(LEASE + 1.0)
        assert election_breaches(group.bdns) == []


# ---------------------------------------------------------------------------
# Quorum-gated replication
# ---------------------------------------------------------------------------
class TestReplicationLog:
    def test_writes_replicate_to_standbys(self, group):
        leader = group.leader()
        assert leader.replication.committed_seq >= len(group.brokers)
        for bdn in group.bdns:
            assert sorted(bdn.store.broker_ids(group.sim.now)) == ["b0", "b1", "b2"]

    def test_read_your_own_ads(self, group):
        # A heartbeat renewal is visible at the leader immediately
        # (applied before replication acks come back).
        leader = group.leader()
        before = leader.store.get("b0").expires_at
        group.sim.run_for(2.0)  # one heartbeat interval later
        assert leader.store.get("b0").expires_at > before

    def test_commit_stalls_without_quorum(self, group):
        leader = group.leader()
        others = [h for h in (
            [b.host for b in group.brokers]
            + [b.host for b in group.bdns if b is not leader]
            + [group.client.host]
        )]
        # Cut the leader's peers away, then write: append cannot reach
        # a quorum, so committed_seq must stall at its pre-write value.
        group.injector.partition(
            (leader.host, *[b.host for b in group.brokers], group.client.host),
            tuple(b.host for b in group.bdns if b is not leader),
        )
        committed = leader.replication.committed_seq
        advertise_direct(group.brokers[0], leader.udp_endpoint, ttl=30.0)
        group.sim.run_for(0.5)
        assert leader.replication.seq > committed
        assert leader.replication.committed_seq == committed
        group.injector.heal()

    @staticmethod
    def _ad(issued_at: float, ttl: float) -> BrokerAdvertisement:
        return BrokerAdvertisement(
            broker_id="b0",
            hostname="b0.host",
            transports=(("udp", 5046),),
            logical_address="/lab/b0",
            issued_at=issued_at,
            ttl=ttl,
        )

    def test_newest_lease_wins_in_store_merge(self):
        sim_now = 100.0
        store = AdvertisementStore()
        older, newer = self._ad(1.0, 10.0), self._ad(3.0, 20.0)
        assert store.accept_if_newer(older, sim_now)
        assert not store.accept_if_newer(older, sim_now)  # the renewal it holds
        assert store.accept_if_newer(newer, sim_now)
        assert not store.accept_if_newer(older, sim_now)  # never regress
        # An expired holder always loses to another renewal.
        assert store.accept_if_newer(older, sim_now + 25.0)
        # Stamps name renewals; they do not order them.  A stamp taken
        # before the broker's NTP sync may be negative, or behind one
        # taken earlier, and the longer lease still wins.
        assert store.accept_if_newer(self._ad(-2.0, 30.0), sim_now + 25.0)
        assert store.get("b0").advertisement.issued_at == -2.0

    def test_the_renewal_held_is_never_booked_again(self):
        store = AdvertisementStore()
        renewal = self._ad(1.0, 10.0)
        assert store.accept_if_newer(renewal, 100.0)
        booked = store.get("b0")
        # The same renewal one transit later, or relayed with a longer
        # ttl, or after the copy held has lapsed: booked once.
        for now, ttl in ((100.01, 10.0), (100.0, 20.0), (111.0, 10.0)):
            assert not store.accept_if_newer(self._ad(1.0, ttl), now)
            assert store.get("b0") is booked


# ---------------------------------------------------------------------------
# Group heartbeats (broker side)
# ---------------------------------------------------------------------------
class TestLeaderHeartbeat:
    def test_brokers_home_on_the_leader(self, group):
        leader_endpoint = group.leader().udp_endpoint
        for responder in group.responders.values():
            assert responder.heartbeat.leader == leader_endpoint

    def test_reregistration_rehomes_after_takeover(self, group):
        old = group.leader()
        group.injector.kill_bdn(old)
        group.sim.run_for(LEASE + 3 * STAGGER + 3.0)
        replacement = group.leader()
        for responder in group.responders.values():
            hb = responder.heartbeat
            assert hb.leader == replacement.udp_endpoint
            assert hb.rehomes >= 2  # initial homing + takeover
        # Leases kept alive across the takeover: nothing expired.
        now = group.sim.now
        assert sorted(replacement.store.broker_ids(now)) == ["b0", "b1", "b2"]

    def test_responses_echo_the_leader_hint(self, group):
        outcome = group.discover()
        assert outcome.success
        assert group.client.preferred_bdn == group.leader().udp_endpoint


# ---------------------------------------------------------------------------
# Cold restart + catch-up
# ---------------------------------------------------------------------------
class TestColdRestart:
    def test_clear_registry_wipes_everything(self, group):
        follower = group.followers()[0]
        assert len(follower.store) > 0
        follower.stop()
        follower.clear_registry()
        assert len(follower.store) == 0
        assert follower._unanswered == {}

    def test_cold_follower_refuses_until_repaired(self, group):
        follower = group.followers()[0]
        follower.stop()
        follower.clear_registry()
        follower.start()
        assert not follower.replication.serving
        # A request hitting the cold member is refused with a hint.
        box = []
        probe = Endpoint("probe.host", 7600)
        group.net.network.register_host("probe.host", site="probe-site", realm="lab")
        group.net.network.bind_udp(probe, lambda m, s: box.append(m))
        group.net.network.send_udp(
            probe,
            follower.udp_endpoint,
            DiscoveryRequest(uuid="req-cold", requester_host="probe.host", requester_port=7600),
        )
        group.sim.run_for(0.2)
        assert [type(m).__name__ for m in box] == ["DiscoveryBusy"]
        assert parse_endpoint(box[0].leader_hint) == group.leader().udp_endpoint
        assert follower.requests_refused_catchup == 1
        # One anti-entropy period later the registry is repaired and
        # the member serves again.
        group.sim.run_for(ANTI_ENTROPY + 1.0)
        assert follower.replication.serving
        assert sorted(follower.store.broker_ids(group.sim.now)) == ["b0", "b1", "b2"]

    def test_cold_restart_via_fault_injector(self, group):
        follower = group.followers()[0]
        group.injector.kill_bdn(follower)
        group.injector.revive_bdn(follower, at=group.sim.now + 1.0, cold=True)
        group.sim.run_for(1.5)
        assert any(kind == "revive_bdn_cold" for _, kind, _ in group.injector.injected)
        group.sim.run_for(ANTI_ENTROPY + 1.0)
        assert follower.replication.caught_up
        assert sorted(follower.store.broker_ids(group.sim.now)) == ["b0", "b1", "b2"]


# ---------------------------------------------------------------------------
# Client-side leader hints
# ---------------------------------------------------------------------------
class TestClientLeaderHints:
    def _client(self) -> DiscoveryClient:
        net = BrokerNetwork(seed=3)
        client = DiscoveryClient(
            "c0",
            "c0.host",
            net.network,
            np.random.default_rng(5),
            config=ClientConfig(
                bdn_endpoints=(
                    Endpoint("d0.host", BDN_UDP_PORT),
                    Endpoint("d1.host", BDN_UDP_PORT),
                    Endpoint("d2.host", BDN_UDP_PORT),
                ),
                retry_policy=RETRY_POLICY,
            ),
            site="client-site",
        )
        return client

    def test_order_is_config_order_without_hints(self):
        client = self._client()
        assert client._bdn_order() == client.config.bdn_endpoints

    def test_hint_moves_leader_first(self):
        client = self._client()
        client._note_leader_hint(f"d2.host:{BDN_UDP_PORT}")
        assert client.preferred_bdn == Endpoint("d2.host", BDN_UDP_PORT)
        assert client._bdn_order() == (
            Endpoint("d2.host", BDN_UDP_PORT),
            Endpoint("d0.host", BDN_UDP_PORT),
            Endpoint("d1.host", BDN_UDP_PORT),
        )
        assert client.leader_hint_updates == 1
        # Re-announcing the same leader is not an update.
        client._note_leader_hint(f"d2.host:{BDN_UDP_PORT}")
        assert client.leader_hint_updates == 1

    def test_unknown_or_malformed_hints_ignored(self):
        client = self._client()
        client._note_leader_hint("")
        client._note_leader_hint("not-an-endpoint")
        client._note_leader_hint("stranger.host:7000")
        assert client.preferred_bdn is None
        assert client.leader_hint_updates == 0

    def test_hint_flips_open_breaker_to_probeable(self):
        client = self._client()
        target = Endpoint("d1.host", BDN_UDP_PORT)
        breaker = client._breaker(target)
        for _ in range(RETRY_POLICY.breaker_failures):
            breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert not breaker.available()  # cooldown not yet elapsed
        client._note_leader_hint(f"d1.host:{BDN_UDP_PORT}")
        assert breaker.available()  # immediately probeable
        assert breaker.allow()  # the probe is granted
        assert breaker.state == breaker.HALF_OPEN

    def test_probe_now_leaves_closed_breakers_alone(self):
        client = self._client()
        target = Endpoint("d1.host", BDN_UDP_PORT)
        breaker = client._breaker(target)
        breaker.probe_now()
        assert breaker.state == breaker.CLOSED
        assert breaker.allow()

    def test_busy_hint_jumps_the_ladder(self):
        from repro.discovery.phases import PhaseTimer
        from repro.discovery.requester import _Run

        client = self._client()

        def fresh_run(index: int = 0) -> _Run:
            run = _Run("u", PhaseTimer(lambda: 0.0), 0.0, lambda outcome: None)
            run.bdn_order = client.config.bdn_endpoints
            run.bdn_index = index
            return run

        # A busy naming a member further down the ladder jumps to it.
        run = fresh_run()
        assert client._next_bdn_index(run, f"d2.host:{BDN_UDP_PORT}") == 2
        assert run.hint_jumped
        # At most one jump per run; afterwards the walk is sequential.
        run.bdn_index = 0
        assert client._next_bdn_index(run, f"d2.host:{BDN_UDP_PORT}") == 1
        # A hint behind the cursor (or absent/unknown) is a plain step.
        assert client._next_bdn_index(fresh_run(index=1), f"d0.host:{BDN_UDP_PORT}") == 2
        assert client._next_bdn_index(fresh_run(), "") == 1
        assert client._next_bdn_index(fresh_run(), "stranger:1") == 1

    def test_discovery_populates_preferred_bdn(self, group):
        assert group.client.preferred_bdn is None
        outcome = group.discover()
        assert outcome.success
        assert group.client.preferred_bdn == group.leader().udp_endpoint
        # The next run walks the leader first.
        assert group.client._bdn_order()[0] == group.leader().udp_endpoint


# ---------------------------------------------------------------------------
# Anti-entropy convergence (satellite: partition -> disjoint ads -> heal)
# ---------------------------------------------------------------------------
class TestAntiEntropyConvergence:
    def test_partitioned_group_converges_after_heal(self):
        world = GroupWorld(seed=11, n_brokers=4, heartbeats=False)
        d0, d1, d2 = world.bdns
        b0, b1, b2, b3 = world.brokers
        # Split the group: {d0, d1} | {d2}, brokers divided across the
        # sides so each side accumulates ads the other cannot see.
        side_a = (d0.host, d1.host, b0.host, b1.host, world.client.host)
        side_b = (d2.host, b2.host, b3.host)
        world.injector.partition(side_a, side_b)
        advertise_direct(b0, d0.udp_endpoint, ttl=60.0)
        advertise_direct(b1, d1.udp_endpoint, ttl=60.0)
        advertise_direct(b2, d2.udp_endpoint, ttl=60.0)
        advertise_direct(b3, d2.udp_endpoint, ttl=0.5)  # expires before heal
        world.sim.run_for(2.0)
        now = world.sim.now
        assert "b2" not in set(d0.store.broker_ids(now)) | set(d1.store.broker_ids(now))
        assert "b0" not in d2.store.broker_ids(now)
        # Heal; within one anti-entropy period every member holds the
        # union of live ads -- minus the lease that expired mid-split.
        world.injector.heal()
        world.sim.run_for(ANTI_ENTROPY + 0.5)
        now = world.sim.now
        expected = ["b0", "b1", "b2"]
        for bdn in world.bdns:
            assert sorted(bdn.store.broker_ids(now)) == expected, bdn.name
        assert election_breaches(world.bdns) == []

    def test_empty_deltas_are_still_answered(self):
        world = GroupWorld(seed=12, n_brokers=2)
        world.sim.run_for(2 * ANTI_ENTROPY)
        # In-sync members keep exchanging digests and answering with
        # empty deltas (that is what catch-up detection rides on).
        for bdn in world.bdns:
            assert bdn.replication.caught_up


# ---------------------------------------------------------------------------
# One identity per renewal: a converged group is quiet
# ---------------------------------------------------------------------------
class TestRenewalIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_settled_group_ships_no_repair_ads(self, seed):
        world = ChaosWorld(seed, replicated=True)
        sent = sum(b.replication.repair_ads_sent for b in world.bdns)
        periods = 10
        world.sim.run_for(periods * world.REPLICATION["anti_entropy_interval"])
        assert sum(b.replication.repair_ads_sent for b in world.bdns) == sent
        # Not vacuous: every member holds every broker, renewed meanwhile.
        now = world.sim.now
        for bdn in world.bdns:
            assert len(bdn.store.all(now)) == world.N_BROKERS
            assert all(s.received_at > now - world.HEARTBEAT_INTERVAL - 0.1
                       for s in bdn.store.all(now))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_dead_brokers_lease_never_moves_later(self, seed):
        world = ChaosWorld(seed, replicated=True)
        world.sim.run_for(3.0)
        world.injector.kill_broker(world.brokers[1])
        world.sim.run_for(0.1)  # a renewal already on the wire lands
        booked = {b.name: b.store.get("b1").expires_at for b in world.bdns}
        while world.sim.now < max(booked.values()) + 1.0:
            world.sim.run_for(0.05)
            for bdn in world.bdns:
                stored = bdn.store.get("b1")
                if stored is not None:
                    assert stored.expires_at <= booked[bdn.name], bdn.name
        for bdn in world.bdns:
            assert "b1" not in bdn.store.broker_ids(world.sim.now)

    def test_one_renewal_delivered_twice_is_booked_once(self):
        world = GroupWorld(seed=5, heartbeats=False)
        leader, follower, other = world.leader(), *world.followers()
        broker = world.brokers[0]
        renewal = build_advertisement(broker, ttl=30.0)
        appends = leader.replication.appends_sent
        # Direct, then the leader's append of the same renewal.
        broker.send_udp(follower.udp_endpoint, renewal)
        broker.send_udp(leader.udp_endpoint, renewal)
        world.sim.run_for(0.015)
        booked = follower.store.get(broker.name)
        assert booked.advertisement.issued_at == renewal.issued_at
        world.sim.run_for(0.5)
        assert leader.replication.appends_sent == appends + 1
        assert follower.store.get(broker.name) is booked
        # Append, then a repair carrying it again.
        held = other.store.get(broker.name)
        assert held.advertisement.issued_at == renewal.issued_at
        applied = other.replication.repair_ads_applied
        repair = AntiEntropyDelta(
            group="g0",
            member=follower.name,
            # As a member ships it: the lease seconds left there as ttl.
            ads=(replace(renewal, ttl=booked.expires_at - world.sim.now),),
        )
        follower.runtime.send_udp(follower.udp_endpoint, other.udp_endpoint, repair)
        world.sim.run_for(0.5)
        assert other.replication.repair_ads_applied == applied
        assert other.store.get(broker.name) is held


class TestAioConvergenceSmoke:
    def test_loopback_group_converges(self):
        """AioRuntime smoke: disjoint follower ads converge via digests."""
        from repro.runtime.aio import AioRuntime

        async def scenario():
            rt = AioRuntime()
            config = BDNConfig(
                injection="all",
                ping_interval=5.0,
                replication=replication_config(
                    3,
                    lease_duration=0.8,
                    heartbeat_interval=0.2,
                    election_stagger=0.1,
                    anti_entropy_interval=0.2,
                ),
            )
            bdns = []
            for j in range(3):
                rt.register_host(f"d{j}.host", site=f"bdn-s{j}", realm="lab")
                bdn = BDN(
                    f"d{j}",
                    f"d{j}.host",
                    rt,
                    np.random.default_rng(j + 1),
                    config=config,
                    site=f"bdn-s{j}",
                    realm="lab",
                )
                bdn.start()
                bdns.append(bdn)
            rt.register_host("probe.host", site="probe-site", realm="lab")
            probe = Endpoint("probe.host", 7600)
            rt.bind_udp(probe, lambda m, s: None)
            await rt.ready()
            await asyncio.sleep(1.2)  # first election
            assert sum(1 for b in bdns if b.replication.is_leader()) == 1
            followers = [b for b in bdns if not b.replication.is_leader()]
            # Disjoint direct ads on the two followers; replication does
            # not carry them (they are not leader writes), so only
            # anti-entropy can spread them.
            for i, follower in enumerate(followers):
                rt.send_udp(
                    probe,
                    follower.udp_endpoint,
                    BrokerAdvertisement(
                        broker_id=f"x{i}",
                        hostname=f"x{i}.host",
                        transports=(("udp", 5046),),
                        logical_address=f"/lab/x{i}",
                        ttl=30.0,
                    ),
                )
            await asyncio.sleep(1.0)  # a few anti-entropy periods
            now = rt.now
            for bdn in bdns:
                assert {"x0", "x1"} <= set(bdn.store.broker_ids(now)), bdn.name
            for bdn in bdns:
                bdn.stop()
            await rt.aclose()

        asyncio.run(scenario())
