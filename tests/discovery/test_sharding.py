"""The sharded BDN registry: consistent hashing, facades, per-shard sweeps.

Three layers under test:

* :class:`~repro.discovery.sharding.HashRing` -- stable placement,
  balanced load, and the consistent-hashing rebalance property (growing
  the ring moves only a fraction of the keys).
* :class:`~repro.discovery.sharding.ShardedRegistry` /
  :class:`~repro.discovery.sharding.ShardedDedup` -- the partitioned
  structures must be observably identical to one flat
  ``AdvertisementStore`` / ``DedupCache`` through the public API, for
  any shard count.  The per-shard dedup budget and LRU eviction-order
  contract (the ``add()``/``seen()`` recency rules) hold within each
  shard.
* The BDN integration -- a sharded BDN serves discovery exactly like an
  unsharded one, arms one phase-staggered lease sweep per shard, and a
  cold restart resets every shard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BDNConfig
from repro.core.dedup import DedupCache
from repro.core.errors import ConfigError
from repro.core.messages import BrokerAdvertisement
from repro.discovery.advertisement import AdvertisementStore
from repro.discovery.sharding import HashRing, ShardedDedup, ShardedRegistry

from .conftest import World


def _ad(broker_id: str, ttl: float = 0.0, issued_at: float = 0.0) -> BrokerAdvertisement:
    return BrokerAdvertisement(
        broker_id=broker_id,
        hostname=f"{broker_id}.host",
        transports=(("udp", 5046),),
        logical_address=f"/site/{broker_id}",
        region="north-america",
        institution="site",
        issued_at=issued_at,
        ttl=ttl,
    )


class TestHashRing:
    def test_validation(self):
        with pytest.raises(ConfigError):
            HashRing(0)
        with pytest.raises(ConfigError):
            HashRing(4, vnodes=0)

    def test_stable_and_in_range(self):
        ring = HashRing(8)
        for i in range(200):
            shard = ring.shard_of(f"broker-{i}")
            assert 0 <= shard < 8
            assert ring.shard_of(f"broker-{i}") == shard

    def test_single_shard_fast_path(self):
        ring = HashRing(1)
        assert all(ring.shard_of(f"b{i}") == 0 for i in range(50))

    def test_load_is_balanced(self):
        ring = HashRing(8)
        counts = [0] * 8
        for i in range(4000):
            counts[ring.shard_of(f"broker-{i:05d}")] += 1
        assert min(counts) > 0
        # 64 vnodes keeps the spread well inside 3x of the mean.
        assert max(counts) < 3 * (4000 / 8)

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        """The consistent-hashing property: n -> n+1 shards reassigns
        roughly 1/(n+1) of the keys, and never to the point of a full
        reshuffle."""
        keys = [f"broker-{i:05d}" for i in range(3000)]
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(1 for k in keys if before.shard_of(k) != after.shard_of(k))
        assert 0 < moved < len(keys) / 2
        # Keys that stayed kept their exact shard assignment.
        for k in keys[:100]:
            if before.shard_of(k) == after.shard_of(k):
                assert after.shard_of(k) < 4


class TestShardedDedup:
    def test_budget_split_across_shards(self):
        dedup = ShardedDedup(HashRing(4), budget=1000)
        assert dedup.budget == 1000
        assert [c.capacity for c in dedup.shards] == [250, 250, 250, 250]

    def test_budget_smaller_than_shards_rejected(self):
        with pytest.raises(ConfigError):
            ShardedDedup(HashRing(8), budget=4)

    def test_single_shard_gets_full_budget(self):
        dedup = ShardedDedup(HashRing(1), budget=1000)
        assert dedup.shards[0].capacity == 1000

    def test_attempts_of_one_request_share_a_shard(self):
        ring = HashRing(4)
        dedup = ShardedDedup(ring)
        uuid = "aaaa-bbbb"
        home = ring.shard_of(uuid)
        for attempt in range(5):
            dedup.add((uuid, attempt))
        assert len(dedup.shards[home]) == 5
        assert all(
            len(c) == 0 for i, c in enumerate(dedup.shards) if i != home
        )

    def test_seen_contract_and_counters_aggregate(self):
        dedup = ShardedDedup(HashRing(4), budget=400)
        assert dedup.seen("k1") is False
        assert dedup.seen("k1") is True
        assert ("k1", 0) not in dedup and "k1" in dedup
        assert (dedup.hits, dedup.misses) == (1, 1)
        assert len(dedup) == 1

    def test_per_shard_lru_eviction_order(self):
        """The PR 7 recency contract holds within each shard: a hot key
        that keeps being re-added is never evicted while quieter keys
        churn past it."""
        ring = HashRing(2)
        dedup = ShardedDedup(ring, budget=8)  # 4 entries per shard
        # Pick keys that all land on shard 0 so we exercise one LRU.
        keys = [f"key-{i}" for i in range(200) if ring.shard_of(f"key-{i}") == 0]
        hot, rest = keys[0], keys[1:6]
        dedup.add(hot)
        for k in rest[:3]:
            dedup.add(k)  # shard 0 now full: [hot, r0, r1, r2]
        dedup.add(hot)  # refresh: hot becomes MRU
        dedup.add(rest[3])  # evicts r0, NOT hot
        assert hot in dedup
        assert rest[0] not in dedup

    def test_reset_versus_clear(self):
        dedup = ShardedDedup(HashRing(2), budget=10)
        dedup.seen("a")
        dedup.seen("a")
        dedup.clear()
        assert len(dedup) == 0 and dedup.hits == 1  # clear keeps history
        dedup.seen("b")
        dedup.reset()
        assert len(dedup) == 0 and dedup.hits == 0  # reset is a cold start

    def test_discard(self):
        dedup = ShardedDedup(HashRing(4))
        dedup.add(("u1", 0))
        dedup.discard(("u1", 0))
        assert ("u1", 0) not in dedup


class TestShardedRegistryEquivalence:
    """A sharded registry is observably one flat store, any shard count."""

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_mirrors_flat_store_through_random_workload(self, shards):
        rng = np.random.default_rng(7)
        flat = AdvertisementStore()
        sharded = ShardedRegistry(shards=shards)
        ids = [f"broker-{i:03d}" for i in range(60)]
        now = 0.0
        for step in range(500):
            now += float(rng.uniform(0.0, 2.0))
            op = rng.integers(0, 5)
            broker = ids[int(rng.integers(0, len(ids)))]
            if op == 0:
                ad = _ad(broker, ttl=float(rng.uniform(1.0, 30.0)), issued_at=now)
                assert flat.accept(ad, now) == sharded.accept(ad, now)
            elif op == 1:
                ad = _ad(broker, ttl=float(rng.uniform(1.0, 30.0)), issued_at=now)
                assert flat.accept_if_newer(ad, now) == sharded.accept_if_newer(ad, now)
            elif op == 2:
                assert flat.remove(broker) == sharded.remove(broker)
            elif op == 3:
                assert flat.evict_expired(now) == sharded.evict_expired(now)
            else:
                assert (broker in flat) == (broker in sharded)
            assert len(flat) == len(sharded)
        assert flat.broker_ids() == sharded.broker_ids()
        assert flat.broker_ids(now) == sharded.broker_ids(now)
        assert [s.advertisement for s in flat.all()] == [
            s.advertisement for s in sharded.all()
        ]
        assert flat.leases_expired == sharded.leases_expired

    def test_all_is_globally_sorted_across_shards(self):
        reg = ShardedRegistry(shards=4)
        rng = np.random.default_rng(3)
        ids = [f"x{int(n):06d}" for n in rng.integers(0, 10**6, size=100)]
        for broker in ids:
            reg.accept(_ad(broker), now=0.0)
        listed = reg.broker_ids()
        assert listed == sorted(set(ids))

    def test_interest_filter_counts_aggregate(self):
        reg = ShardedRegistry(shards=4, interest_regions=frozenset({"europe"}))
        for i in range(10):
            reg.accept(_ad(f"b{i}"), now=0.0)  # region is north-america
        assert len(reg) == 0
        assert reg.ignored == 10

    def test_get_routes_to_owning_shard(self):
        reg = ShardedRegistry(shards=4)
        reg.accept(_ad("b7"), now=1.0)
        stored = reg.get("b7")
        assert stored is not None and stored.broker_id == "b7"
        assert reg.get("missing") is None
        assert reg.shard_for("b7") is reg.shard(reg.ring.shard_of("b7"))

    def test_clear_empties_every_shard(self):
        reg = ShardedRegistry(shards=4)
        for i in range(20):
            reg.accept(_ad(f"b{i}"), now=0.0)
        reg.clear()
        assert len(reg) == 0
        assert all(len(s) == 0 for s in reg.shards)


class TestShardedBDN:
    def _world(self, shards: int) -> World:
        return World(
            n_brokers=4,
            injection="all",
            bdn_config=BDNConfig(injection="all", shards=shards),
        )

    def test_discovery_succeeds_on_sharded_registry(self):
        world = self._world(shards=4)
        assert world.bdn.registry.shard_count == 4
        assert world.bdn.store is world.bdn.registry
        assert len(world.bdn.store) == 4  # all brokers registered
        outcome = world.discover()
        assert outcome.success  # brokers answered through the shards
        assert outcome.candidates

    def test_one_staggered_sweep_series_per_shard(self):
        world = self._world(shards=4)
        assert len(world.bdn._sweep_timers) == 4

    def test_default_config_keeps_flat_dedup_capacity(self):
        world = self._world(shards=1)
        assert isinstance(world.bdn.dedup, ShardedDedup)
        assert world.bdn.dedup.shards[0].capacity == DedupCache().capacity

    def test_cold_restart_resets_every_shard(self):
        world = self._world(shards=4)
        world.discover()
        assert len(world.bdn.dedup) > 0
        world.bdn.stop()
        world.bdn.clear_registry()
        assert len(world.bdn.store) == 0
        assert len(world.bdn.dedup) == 0 and world.bdn.dedup.misses == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BDNConfig(shards=0)
