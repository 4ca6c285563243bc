"""Tests for Broker Discovery Nodes (paper sections 2-4)."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import BDNConfig, Endpoint
from repro.core.messages import (
    Ack,
    BrokerAdvertisement,
    DiscoveryRequest,
    DiscoveryResponse,
    PingRequest,
    PingResponse,
)
from repro.discovery.advertisement import (
    AdvertisementStore,
    advertise_direct,
    build_advertisement,
)
from repro.discovery.bdn import BDN
from repro.discovery.ping import Pinger
from repro.discovery.sharding import HashRing, ShardedRegistry
from repro.obs import Observability
from repro.simnet.latency import UniformLatencyModel
from repro.substrate.builder import BrokerNetwork, Topology
from tests.discovery.conftest import World


def send_request(world: World, uuid="req-1", attempt=0, credentials=frozenset()):
    req = DiscoveryRequest(
        uuid=uuid,
        requester_host=world.client.host,
        requester_port=7500,
        credentials=credentials,
        issued_at=world.client.utc(),
        attempt=attempt,
    )
    world.net.network.send_udp(world.client.udp_endpoint, world.bdn.udp_endpoint, req)


def inbox_of(world: World) -> list:
    box = []
    world.net.network.unbind_udp(world.client.udp_endpoint)
    world.net.network.bind_udp(world.client.udp_endpoint, lambda m, s: box.append(m))
    return box


class TestRegistration:
    def test_direct_advertisement_registers(self):
        world = World(n_brokers=3)
        assert world.bdn.store.broker_ids() == ["b0", "b1", "b2"]

    def test_optional_registration(self):
        """'It is not necessary for every broker to be registered'."""
        world = World(n_brokers=3, register=False)
        assert len(world.bdn.store) == 0
        advertise_direct(world.brokers[1], world.bdn.udp_endpoint)
        world.sim.run_for(1.0)
        assert world.bdn.store.broker_ids() == ["b1"]

    def test_registration_triggers_distance_ping(self):
        world = World(n_brokers=2)
        # settle() gave the initial pings time to come back.
        table = world.bdn.distance_table()
        assert set(table) == {"b0", "b1"}
        assert all(rtt > 0 for rtt in table.values())

    def test_interest_region_filter(self):
        world = World(
            n_brokers=2,
            register=False,
            bdn_config=BDNConfig(interest_regions=frozenset({"europe"})),
        )
        europe = dataclasses.replace(build_advertisement(world.brokers[0]), region="europe")
        world.brokers[0].send_udp(world.bdn.udp_endpoint, europe)
        advertise_direct(world.brokers[1], world.bdn.udp_endpoint)  # north-america
        world.sim.run_for(1.0)
        assert world.bdn.store.broker_ids() == ["b0"]


class TestRequestHandling:
    def test_ack_sent_promptly(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(0.5)
        acks = [m for m in box if isinstance(m, Ack)]
        assert len(acks) == 1
        assert acks[0].uuid == "req-1"
        assert acks[0].acked_by == "bdn0"

    def test_duplicate_request_acked_not_redisseminated(self):
        """Section 3: 'multiple requests forwarded to the same BDN would
        be idempotent'."""
        world = World(n_brokers=2)
        box = inbox_of(world)
        send_request(world)
        send_request(world)
        world.sim.run_for(1.0)
        assert len([m for m in box if isinstance(m, Ack)]) == 2
        assert world.bdn.requests_disseminated == 1

    def test_retransmission_redisseminated(self):
        world = World(n_brokers=2)
        send_request(world, attempt=0)
        send_request(world, attempt=1)
        world.sim.run_for(1.0)
        assert world.bdn.requests_disseminated == 2

    def test_no_brokers_registered_no_dissemination(self):
        world = World(n_brokers=1, register=False)
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(1.0)
        assert world.bdn.requests_disseminated == 0
        assert len([m for m in box if isinstance(m, Ack)]) == 1  # still acked


class TestInjectionStrategies:
    def test_all_reaches_every_registered_broker(self):
        world = World(n_brokers=4, injection="all")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(2.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert ids == {"b0", "b1", "b2", "b3"}

    def test_single_reaches_one_broker_only(self):
        world = World(n_brokers=4, injection="single")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(2.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert len(ids) == 1  # unconnected: nothing propagates further

    def test_closest_farthest_injects_two(self):
        world = World(n_brokers=4, injection="closest_farthest")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(2.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert len(ids) == 2

    def test_closest_farthest_picks_extremes_of_distance_table(self):
        world = World(n_brokers=3, injection="closest_farthest")
        table = world.bdn.distance_table()
        expected = {
            min(table, key=lambda b: (table[b], b)),
            max(table, key=lambda b: (table[b], b)),
        }
        targets = [s.broker_id for s in world.bdn._injection_targets()]
        assert set(targets) == expected

    def test_closest_farthest_with_single_broker(self):
        world = World(n_brokers=1, injection="closest_farthest")
        assert len(world.bdn._injection_targets()) == 1

    def test_connected_network_all_respond_via_propagation(self):
        world = World(n_brokers=4, topology=Topology.STAR, injection="closest_farthest")
        box = inbox_of(world)
        send_request(world)
        world.sim.run_for(3.0)
        ids = {m.broker_id for m in box if isinstance(m, DiscoveryResponse)}
        assert ids == {"b0", "b1", "b2", "b3"}


class TestPrivateBDN:
    def test_credentials_required_for_dissemination(self):
        """Section 2.4: a private BDN requires credentials before it
        disseminates."""
        world = World(
            n_brokers=2,
            bdn_config=BDNConfig(
                injection="all", required_credentials=frozenset({"member"})
            ),
        )
        box = inbox_of(world)
        send_request(world, uuid="anon")
        send_request(world, uuid="auth", credentials=frozenset({"member"}))
        world.sim.run_for(2.0)
        responses = {m.request_uuid for m in box if isinstance(m, DiscoveryResponse)}
        assert responses == {"auth"}
        assert world.bdn.credential_rejections == 1
        # Both were acked (receipt), only one disseminated.
        assert len([m for m in box if isinstance(m, Ack)]) == 2


class TestSweepsAndPruning:
    def test_sweep_measures_distances(self):
        world = World(n_brokers=2, bdn_config=BDNConfig(injection="all", ping_interval=5.0))
        world.sim.run_for(12.0)
        assert set(world.bdn.distance_table()) == {"b0", "b1"}

    def test_dead_broker_pruned_after_silence(self):
        world = World(n_brokers=2, bdn_config=BDNConfig(injection="all", ping_interval=2.0))
        world.brokers[1].stop()
        world.sim.run_for(30.0)  # > 3 missed sweeps
        assert world.bdn.store.broker_ids() == ["b0"]

    def test_live_brokers_never_pruned(self):
        world = World(n_brokers=2, bdn_config=BDNConfig(injection="all", ping_interval=2.0))
        world.sim.run_for(60.0)
        assert world.bdn.store.broker_ids() == ["b0", "b1"]


class TestLifecycle:
    def test_stopped_bdn_ignores_requests(self):
        world = World(n_brokers=1)
        box = inbox_of(world)
        world.bdn.stop()
        send_request(world)
        world.sim.run_for(1.0)
        assert box == []

    def test_stop_is_idempotent(self):
        world = World(n_brokers=1)
        world.bdn.stop()
        world.bdn.stop()

    def test_stop_then_start_serves_again(self):
        """A stopped BDN is restarted with ``start()``: the port is bound
        again, the sweep re-armed, requests acknowledged and disseminated
        -- and ``started`` follows ``alive`` at every step."""
        world = World(n_brokers=1)
        bdn = world.bdn
        box = inbox_of(world)
        assert bdn.started is bdn.alive is True
        bdn.stop()
        assert bdn.started is bdn.alive is False
        send_request(world, uuid="while-stopped")
        world.sim.run_for(1.0)
        assert box == []
        bdn.start()  # no reaching in to reset the started flag first
        assert bdn.started is bdn.alive is True
        assert len(bdn._sweep_timers) == 1
        send_request(world, uuid="after")
        world.sim.run_for(1.0)
        assert [m.uuid for m in box if isinstance(m, Ack)] == ["after"]
        assert [m.request_uuid for m in box if isinstance(m, DiscoveryResponse)] == ["after"]
        assert bdn.requests_disseminated == 1


# ----------------------------------------------------------------------
# The distance index behind _injection_targets
# ----------------------------------------------------------------------
INJECTIONS = ("single", "closest_farthest", "all")


class PongWorld:
    """A BDN facing ping-answering stand-ins for brokers.

    No broker network: each stand-in is a UDP endpoint on its own site
    that answers the BDN's pings unless muted, under heavy jitter so
    mean RTTs keep trading places.
    """

    def __init__(
        self,
        n: int,
        shards: int = 1,
        injection: str = "closest_farthest",
        ping_interval: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.net = BrokerNetwork(
            seed=seed, latency=UniformLatencyModel(base=0.010, jitter_fraction=0.5)
        )
        self.sim = self.net.sim
        self.network = self.net.network
        self.obs = Observability(clock=lambda: self.sim.now, ring_capacity=0)
        self.bdn = BDN(
            "bdn0",
            "bdn0.host",
            self.network,
            np.random.default_rng(seed + 1),
            config=BDNConfig(
                injection=injection,
                shards=shards,
                ping_interval=ping_interval,
                fanout_delay=1e-4,
            ),
            site="bdn-site",
            obs=self.obs,
        )
        self.bdn.start()
        self.network.register_host("client.host", "client-site")
        self.requester = Endpoint("client.host", 7500)
        self.muted: set[int] = set()
        self.requests = 0
        for i in range(n):
            self.network.register_host(f"h{i}.x", f"s{i}")
            self.network.bind_udp(self.endpoint(i), self._ponger(i))

    def endpoint(self, i: int) -> Endpoint:
        return Endpoint(f"h{i}.x", 5046)

    def _ponger(self, i: int):
        def on_udp(message, src) -> None:
            if isinstance(message, PingRequest) and i not in self.muted:
                self.network.send_udp(
                    self.endpoint(i),
                    Endpoint(message.reply_host, message.reply_port),
                    PingResponse(uuid=message.uuid, sent_at=message.sent_at, broker_id=f"b{i}"),
                )

        return on_udp

    def ad(self, i: int, ttl: float = 0.0) -> BrokerAdvertisement:
        return BrokerAdvertisement(
            broker_id=f"b{i}",
            hostname=f"h{i}.x",
            transports=(("tcp", 5045), ("udp", 5046)),
            logical_address=f"/s{i}/b{i}",
            ttl=ttl,
        )

    def register(self, i: int, ttl: float = 0.0) -> None:
        self.bdn._on_udp(self.ad(i, ttl), self.endpoint(i))

    def request(self) -> None:
        self.requests += 1
        self.bdn._on_udp(
            DiscoveryRequest(
                uuid=f"req-{self.requests}",
                requester_host=self.requester.host,
                requester_port=self.requester.port,
            ),
            self.requester,
        )

    def targets(self) -> list[str]:
        return [s.broker_id for s in self.bdn._injection_targets()]

    def index_ids(self) -> list[str]:
        """Ids in the index, after checking its two halves agree."""
        bdn = self.bdn
        assert bdn._by_distance == sorted(bdn._distance_key.values())
        assert all(key[1] == broker_id for broker_id, key in bdn._distance_key.items())
        return sorted(bdn._distance_key)


def reference_targets(bdn: BDN) -> list[str]:
    """What the BDN did before it kept an index: read the whole
    lease-filtered registry and sort it by distance on every request."""
    ads = bdn.store.all(bdn.runtime.now)
    if not ads or bdn.config.injection == "all":
        return [s.broker_id for s in ads]

    def distance(stored):
        rtt = bdn.pinger.average_rtt(stored.broker_id)
        return (rtt if rtt is not None else float("inf"), stored.broker_id)

    by_distance = [s.broker_id for s in sorted(ads, key=distance)]
    if bdn.config.injection == "single" or len(by_distance) == 1:
        return by_distance[:1]
    return [by_distance[0], by_distance[-1]]


class TestDistanceIndex:
    @pytest.mark.parametrize("injection", INJECTIONS)
    @pytest.mark.parametrize("shards", [1, 16])
    def test_matches_full_sort_after_every_step(self, shards, injection):
        n = 12
        world = PongWorld(n, shards=shards, injection=injection, seed=shards)
        bdn = world.bdn
        rng = np.random.default_rng(7)
        orphans: set[str] = set()  # evicted from the store behind the BDN's back

        def pick() -> int:
            return int(rng.integers(n))

        def ttl() -> float:
            return float(rng.choice([0.0, 0.0, 1.5, 4.0]))

        def direct_evict() -> None:
            orphans.update(bdn.store.evict_expired(world.sim.now))

        def cold_restart() -> None:
            bdn.clear_registry()
            orphans.clear()

        steps = [
            (24, lambda: world.register(pick(), ttl())),
            (8, lambda: bdn.apply_replicated(world.ad(pick(), ttl()))),
            (24, lambda: world.sim.run_for(float(rng.choice([0.004, 0.03, 0.4, 1.7, 4.5])))),
            (12, lambda: bdn.pinger.ping(world.endpoint(i := pick()), key=f"b{i}")),
            (8, lambda: bdn._sweep_shard(int(rng.integers(shards)))),
            (6, lambda: world.muted.symmetric_difference_update({pick()})),
            (3, direct_evict),
            (1, cold_restart),
        ]
        weights = np.array([w for w, _ in steps], dtype=float)
        seen: set[tuple[str, ...]] = set()
        for _ in range(600):
            steps[int(rng.choice(len(steps), p=weights / weights.sum()))][1]()
            expected = reference_targets(bdn)
            assert world.targets() == expected
            seen.add(tuple(expected))
            registered = set(bdn.store.broker_ids())
            assert registered <= set(world.index_ids()) <= registered | orphans
            disseminated = bdn.requests_disseminated
            world.request()
            assert bdn.requests_disseminated == disseminated + bool(expected)
            assert bdn.stale_targets == 0
        # The walk really went through every feeding site and the
        # selection really moved.
        count = world.obs.count
        assert count("bdn_lease_expired") and count("bdn_pruned")
        assert count("bdn_cold_restart") and count("bdn_no_brokers")
        assert orphans or bdn.store.leases_expired > count("bdn_lease_expired")
        assert len(seen) >= 10

    def test_lapsed_closest_is_skipped_between_sweeps(self):
        world = PongWorld(3, ping_interval=1e6)
        for i in range(3):
            world.register(i, ttl=60.0)
        world.sim.run_for(1.0)
        closest, _, farthest = (key[1] for key in world.bdn._by_distance)
        # Renew the closest with a short lease and let it lapse; no sweep
        # runs (and no pong reorders), so the ad is still stored and
        # still first in the index.
        world.muted.update(range(3))
        world.register(int(closest[1:]), ttl=0.5)
        world.sim.run_for(1.0)
        assert closest in world.bdn.store
        assert world.bdn._by_distance[0][1] == closest
        targets = world.targets()
        assert targets == reference_targets(world.bdn)
        assert closest not in targets and targets[1] == farthest
        world.request()
        assert world.bdn.requests_disseminated == 1
        assert world.bdn.stale_targets == 0

    def test_late_pong_does_not_resurrect_an_evicted_broker(self):
        world = PongWorld(2, ping_interval=1e6)
        world.register(0)
        world.register(1, ttl=0.5)
        world.sim.run_for(1.0)
        world.bdn.pinger.ping(world.endpoint(1), key="b1")  # in flight...
        world.bdn._sweep_shard(0)  # ...when the lapsed lease is swept
        assert world.index_ids() == ["b0"]
        world.sim.run_for(1.0)
        assert world.bdn.pinger.sample_count("b1") == 1  # the pong did land
        assert world.index_ids() == ["b0"]
        assert world.targets() == ["b0"]
        # Re-registration sorts b1 at its measured distance, not at inf.
        world.register(1)
        rtt = world.bdn.pinger.average_rtt("b1")
        assert world.bdn._distance_key["b1"] == (rtt, "b1")
        world.sim.run_for(1.0)
        assert world.bdn.pinger.sample_count("b1") == 2
        assert world.targets() == reference_targets(world.bdn)
        assert sorted(world.targets()) == ["b0", "b1"]

    def test_clear_registry_empties_the_index(self):
        world = PongWorld(3)
        for i in range(3):
            world.register(i)
        world.sim.run_for(1.0)
        world.bdn.clear_registry()
        assert world.bdn._by_distance == [] and world.bdn._distance_key == {}
        world.sim.run_for(1.0)  # pongs of the wiped brokers change nothing
        assert world.index_ids() == []
        world.request()
        assert world.obs.count("bdn_no_brokers") == 1
        assert world.bdn.requests_disseminated == 0

    def test_unmeasured_brokers_sort_last_by_id(self):
        """Without an RTT the fallback is id order, not registration order."""
        world = PongWorld(4, ping_interval=1e6)
        world.muted.update({1, 2, 3})
        for i in (3, 0, 2, 1):
            world.register(i)
        world.sim.run_for(1.0)
        assert [key[1] for key in world.bdn._by_distance] == ["b0", "b1", "b2", "b3"]
        assert world.targets() == ["b0", "b3"] == reference_targets(world.bdn)
        world.muted.clear()
        world.bdn.pinger.ping(world.endpoint(3), key="b3")
        world.sim.run_for(1.0)
        assert [key[1] for key in world.bdn._by_distance][-1] == "b2"


class TestRequestCostDoesNotGrowWithTheRegistry:
    def test_fresh_requests_read_neither_the_registry_nor_every_rtt(self, monkeypatch):
        n, requests = 2000, 50
        world = PongWorld(n, shards=16, ping_interval=1e6)
        for i in range(n):
            world.register(i)
        world.sim.run_for(1.0)
        assert len(world.bdn.distance_table()) == n
        calls = {"all": 0, "average_rtt": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ShardedRegistry, "all", counted("all", ShardedRegistry.all))
        monkeypatch.setattr(AdvertisementStore, "all", counted("all", AdvertisementStore.all))
        monkeypatch.setattr(Pinger, "average_rtt", counted("average_rtt", Pinger.average_rtt))
        for _ in range(requests):
            world.request()
            world.sim.run_for(0.01)
        assert world.bdn.requests_disseminated == requests
        assert calls == {"all": 0, "average_rtt": 0}


class TestWarmRegistryRederivesNothing:
    """A registered broker's shard and UDP endpoint are facts the BDN
    holds: a renewal or a request must not derive them again (a CRC-32
    and a ring bisect; a transport scan and a new ``Endpoint``)."""

    N = 2000

    @staticmethod
    def counting(monkeypatch, cls, name: str, calls: list) -> None:
        original = getattr(cls, name)

        def wrapper(self, key, *args):
            calls.append(key)
            return original(self, key, *args)

        monkeypatch.setattr(cls, name, wrapper)

    def test_renewals_and_requests_recompute_no_route_or_endpoint(self, monkeypatch):
        n = self.N
        world = PongWorld(n, shards=16, ping_interval=1e6)
        for i in range(n):
            world.register(i)
        world.sim.run_for(1.0)
        world.request()
        world.sim.run_for(0.01)
        registered = set(world.bdn.store.broker_ids())
        assert len(registered) == n
        routed: list[str] = []
        addressed: list[str] = []
        self.counting(monkeypatch, HashRing, "shard_of", routed)
        self.counting(monkeypatch, BrokerAdvertisement, "port_for", addressed)
        requests = 0
        for _ in range(5):
            for i in range(n):
                world.register(i)
            world.sim.run_for(0.5)
            addressed.clear()  # a renewal may read its ad; a request may not
            for _ in range(10):
                world.request()
                world.sim.run_for(0.01)
                requests += 1
            assert addressed == []
        assert world.obs.count("bdn_registered") == 6 * n
        assert world.bdn.requests_disseminated == requests + 1
        assert [key for key in routed if key in registered] == []
        # The guard counts the calls it should: request uuids still route.
        assert routed

    def test_routing_memo_never_outgrows_the_registry(self):
        n = self.N
        world = PongWorld(n, shards=16, ping_interval=2.0)
        bdn = world.bdn
        registry = bdn.registry

        def memo_is_the_registry() -> int:
            assert set(registry._home) == set(registry.broker_ids())
            return len(registry._home)

        # A third leased (they lapse), a third silent (they are pruned),
        # a third answering and unleased (they stay).
        for i in range(n):
            world.register(i, ttl=3.0 if i % 3 == 0 else 0.0)
        world.muted.update(range(1, n, 3))
        assert memo_is_the_registry() == n
        world.sim.run_for(9.0)
        assert world.obs.count("bdn_lease_expired") == len(range(0, n, 3))
        assert world.obs.count("bdn_pruned") == len(range(1, n, 3))
        assert memo_is_the_registry() == len(range(2, n, 3))
        # Back again, then gone by every other path.
        for i in range(0, n, 3):
            world.register(i, ttl=0.5)
        assert memo_is_the_registry() == len(range(2, n, 3)) + len(range(0, n, 3))
        world.sim.run_for(1.0)  # lapsed: some swept, the rest evicted here
        assert bdn.store.evict_expired(world.sim.now)
        assert memo_is_the_registry() == len(range(2, n, 3))
        assert bdn.store.remove("b2") and not bdn.store.remove("b2")
        assert "b2" not in bdn.store and bdn.store.get("b2") is None
        assert memo_is_the_registry() == len(range(2, n, 3)) - 1
        bdn.clear_registry()
        assert memo_is_the_registry() == 0
        world.register(5)
        assert memo_is_the_registry() == 1 and bdn.store.get("b5").broker_id == "b5"


# ----------------------------------------------------------------------
# What a lease renewal costs the BDN
# ----------------------------------------------------------------------
class TestRenewalCost:
    """A broker is pinged when it enters the registry and on the sweep,
    never because it renewed: a renewal costs the BDN one datagram.
    And only a broker the BDN learns something from is pinged at all:
    under ``injection="all"`` no distance is read, so a leased broker
    draws no ping ever and leaves by lease eviction alone; an unleased
    one, and every broker under a distance-based injection, is pinged.
    ``ping_interval=1e6`` keeps the sweep out of the cases that do not
    need it."""

    @staticmethod
    def pings(world: PongWorld, action) -> int:
        before = world.bdn.pinger.pings_sent
        action()
        return world.bdn.pinger.pings_sent - before

    def test_a_measured_broker_renewing_draws_no_ping(self):
        world = PongWorld(1, ping_interval=1e6)
        world.register(0, ttl=60.0)
        world.sim.run_for(1.0)
        assert world.bdn.pinger.sample_count("b0") == 1

        def renew_50_times() -> None:
            for _ in range(50):
                world.register(0, ttl=60.0)
                world.sim.run_for(0.1)

        assert self.pings(world, renew_50_times) == 0
        assert world.obs.count("bdn_registered") == 51

    def test_renewals_at_registry_scale_cost_no_ping(self):
        n = 2000
        world = PongWorld(n, shards=16, ping_interval=1e6)
        for _ in range(5):
            for i in range(n):
                world.register(i)
            world.sim.run_for(1.0)
        assert world.obs.count("bdn_registered") == 5 * n
        assert world.bdn.pinger.pings_sent == n
        assert len(world.bdn.distance_table()) == n

    def test_a_follower_applying_replicated_renewals_pings_once(self):
        world = PongWorld(1, ping_interval=1e6)
        world.muted.add(0)  # no pong comes back: the broker stays unmeasured
        for stamp in range(1, 6):
            renewal = dataclasses.replace(world.ad(0, ttl=60.0), issued_at=float(stamp))
            assert world.bdn.apply_replicated(renewal)
            world.sim.run_for(0.5)
        assert world.obs.count("bdn_registered") == 5
        assert world.bdn.pinger.pings_sent == 1

    @pytest.mark.parametrize("departure", ["bdn_lease_expired", "bdn_pruned", "bdn_cold_restart"])
    def test_a_broker_that_left_the_registry_is_pinged_on_return(self, departure):
        world = PongWorld(1, ping_interval=2.0)
        world.register(0, ttl=3.0 if departure == "bdn_lease_expired" else 0.0)
        if departure == "bdn_lease_expired":
            world.sim.run_for(4.5)  # lapses at 3.0, evicted by the sweep at 4.0
        elif departure == "bdn_pruned":
            world.muted.add(0)
            world.sim.run_for(8.5)  # silent since ~0.02 s: pruned by the sweep at 8.0
            world.muted.clear()
        else:
            world.sim.run_for(0.5)
            world.bdn.clear_registry()
        assert world.obs.count(departure) == 1
        assert world.index_ids() == []
        assert self.pings(world, lambda: world.register(0)) == 1
        assert self.pings(world, lambda: world.register(0)) == 0
        world.sim.run_for(0.5)
        assert world.bdn.pinger.sample_count("b0") == 1
        assert world.targets() == ["b0"]


    @pytest.mark.parametrize("entry", ["direct", "replicated"])
    def test_a_leased_broker_under_all_is_never_pinged(self, entry):
        world = PongWorld(1, injection="all", ping_interval=2.0)

        def renew(stamp: int) -> None:
            ad = dataclasses.replace(world.ad(0, ttl=60.0), issued_at=float(stamp))
            if entry == "direct":
                world.bdn._on_udp(ad, world.endpoint(0))
            else:
                assert world.bdn.apply_replicated(ad)

        renew(1)  # entry
        for stamp in range(2, 12):
            world.sim.run_for(1.0)  # five sweeps in all
            renew(stamp)
        assert world.obs.count("bdn_registered") == 11
        assert world.bdn.pinger.pings_sent == 0
        assert world.bdn.distance_table() == {}
        assert world.targets() == ["b0"]

    def test_a_leased_broker_under_all_leaves_only_by_its_lease(self):
        world = PongWorld(1, injection="all", ping_interval=2.0)
        world.muted.add(0)
        world.register(0, ttl=9.0)
        world.sim.run_for(8.5)  # four sweeps: a pinged, silent broker is pruned at 8.0
        assert world.obs.count("bdn_pruned") == 0
        assert world.targets() == ["b0"]
        world.sim.run_for(2.0)  # lapses at 9.0, evicted by the sweep at 10.0
        assert world.obs.count("bdn_lease_expired") == 1
        assert world.obs.count("bdn_pruned") == 0
        assert world.bdn.pinger.pings_sent == 0

    @pytest.mark.parametrize(
        "injection, ttl",
        [("all", 0.0), ("closest_farthest", 0.0), ("closest_farthest", 60.0), ("single", 60.0)],
    )
    def test_brokers_whose_pings_learn_something_keep_them(self, injection, ttl):
        world = PongWorld(1, injection=injection, ping_interval=2.0)
        assert self.pings(world, lambda: world.register(0, ttl=ttl)) == 1
        assert self.pings(world, lambda: world.register(0, ttl=ttl)) == 0
        assert self.pings(world, lambda: world.sim.run_for(4.5)) == 2  # sweeps at 2.0, 4.0
        assert world.bdn.pinger.sample_count("b0") == 3


class TestPruneOnEvidence:
    """A broker is pruned for sweep pings it left unanswered, never for
    the time that passed: silence is judged on pings actually sent."""

    def test_a_muted_broker_is_pruned_after_its_third_unanswered_sweep_ping(self):
        world = PongWorld(1, ping_interval=2.0)
        world.register(0)
        world.sim.run_for(5.0)  # entry ping and the sweeps at 2.0 and 4.0 answered
        assert world.bdn.pinger.sample_count("b0") == 3
        world.muted.add(0)
        sent = world.bdn.pinger.pings_sent
        world.sim.run_for(6.9)  # sweep pings at 6.0, 8.0 and 10.0, none answered
        assert world.bdn.pinger.pings_sent - sent == 3
        assert world.obs.count("bdn_pruned") == 0
        world.sim.run_for(0.2)  # the sweep at 12.0 prunes instead of pinging
        assert world.bdn.pinger.pings_sent - sent == 3
        assert world.obs.count("bdn_pruned") == 1
        assert world.index_ids() == []

    def test_a_sweep_after_a_long_gap_prunes_nothing(self):
        world = PongWorld(3, ping_interval=2.0)
        for i in range(3):
            world.register(i)
        world.sim.run_for(1.0)  # every entry ping answered
        for timer in world.bdn._sweep_timers:
            timer.cancel()  # as if the BDN's loop stalled
        world.sim.run_for(5 * 2.0)
        sent = world.bdn.pinger.pings_sent
        world.bdn._sweep_shard(0)
        assert world.obs.count("bdn_pruned") == 0
        assert world.bdn.pinger.pings_sent - sent == 3
        world.sim.run_for(0.5)
        assert [world.bdn.pinger.sample_count(f"b{i}") for i in range(3)] == [2, 2, 2]
        assert sorted(world.index_ids()) == ["b0", "b1", "b2"]


def test_networkx_is_not_imported_by_the_serving_processes():
    code = (
        "import sys; "
        "import repro.discovery.bdn, repro.substrate.builder, repro.cluster.worker; "
        "sys.exit('networkx' in sys.modules)"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
