"""Advertisement leases: TTLs, heartbeat renewal, and BDN eviction."""

from __future__ import annotations

import math

import pytest

from repro.core.config import BDNConfig, ClientConfig, Endpoint
from repro.discovery.advertisement import (
    advertise_direct,
    build_advertisement,
    start_periodic_advertisement,
)

from .conftest import World


class TestStoreLeases:
    def _world(self):
        # Long sweep interval so only the read path, not eviction, is
        # exercised unless a test advances far enough.
        return World(
            n_brokers=2,
            bdn_config=BDNConfig(injection="all", ping_interval=500.0),
            register=False,
        )

    def test_ttl_zero_never_expires(self):
        w = self._world()
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=0.0)
        w.sim.run_for(1.0)
        stored = w.bdn.store.get("b0")
        assert stored is not None
        assert stored.expires_at == math.inf
        assert not stored.is_expired(1e12)

    def test_ttl_sets_expiry_on_receiver_clock(self):
        w = self._world()
        sent_at = w.sim.now
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=5.0)
        w.sim.run_for(1.0)
        stored = w.bdn.store.get("b0")
        assert stored is not None
        # Received shortly after sending (one UDP hop), expiry = receipt + ttl.
        assert sent_at < stored.received_at < sent_at + 0.5
        assert stored.expires_at == pytest.approx(stored.received_at + 5.0)

    def test_read_path_filters_expired_before_any_sweep(self):
        w = self._world()
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=2.0)
        advertise_direct(w.brokers[1], w.bdn.udp_endpoint, ttl=0.0)
        w.sim.run_for(10.0)
        store = w.bdn.store
        # b0's lease lapsed but no sweep ran yet: still stored...
        assert "b0" in store
        # ...but invisible to lease-aware reads.
        assert store.broker_ids(w.sim.now) == ["b1"]
        assert [s.broker_id for s in store.all(w.sim.now)] == ["b1"]
        # Lease-blind reads (distance table etc.) still see it.
        assert store.broker_ids() == ["b0", "b1"]

    def test_evict_expired_removes_and_counts(self):
        w = self._world()
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=2.0)
        w.sim.run_for(10.0)
        evicted = w.bdn.store.evict_expired(w.sim.now)
        assert evicted == ["b0"]
        assert "b0" not in w.bdn.store
        assert w.bdn.store.leases_expired == 1

    def test_renewal_replaces_lease(self):
        w = self._world()
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=2.0)
        w.sim.run_for(1.0)
        first = w.bdn.store.get("b0").expires_at
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=2.0)
        w.sim.run_for(1.0)
        assert w.bdn.store.get("b0").expires_at > first

    def test_negative_ttl_rejected(self):
        w = self._world()
        with pytest.raises(ValueError):
            build_advertisement(w.brokers[0], ttl=-1.0)


class TestHeartbeat:
    def _world(self):
        # ping_interval 4 s puts the silence-prune horizon at 12 s, so a
        # 6 s lease (3 x 2 s heartbeats) always lapses first and these
        # tests exercise lease eviction, not ping-based pruning.
        return World(
            n_brokers=2,
            bdn_config=BDNConfig(injection="all", ping_interval=4.0),
            register=False,
        )

    def test_heartbeat_keeps_live_broker_registered(self):
        w = self._world()
        for broker in w.brokers:
            start_periodic_advertisement(broker, w.bdn.udp_endpoint, interval=2.0)
        # Default lease is 3 heartbeats = 6 s; run far past it.
        w.sim.run_for(30.0)
        assert w.bdn.store.broker_ids(w.sim.now) == ["b0", "b1"]
        assert w.bdn.store.leases_expired == 0

    def test_dead_broker_lease_lapses_and_is_evicted(self):
        w = self._world()
        for broker in w.brokers:
            start_periodic_advertisement(broker, w.bdn.udp_endpoint, interval=2.0)
        w.sim.run_for(10.0)
        w.brokers[0].stop()
        # Lease (6 s) lapses, then the next sweep (every 4 s) evicts.
        w.sim.run_for(12.0)
        assert "b0" not in w.bdn.store
        assert w.bdn.store.leases_expired >= 1
        assert w.bdn.store.broker_ids(w.sim.now) == ["b1"]

    def test_heartbeat_resumes_after_revive(self):
        w = self._world()
        series = start_periodic_advertisement(w.brokers[0], w.bdn.udp_endpoint, interval=2.0)
        w.sim.run_for(10.0)
        w.brokers[0].stop()
        w.sim.run_for(12.0)
        assert "b0" not in w.bdn.store
        w.brokers[0].start()
        w.sim.run_for(6.0)
        assert "b0" in w.bdn.store
        series.cancel()


class TestNoStaleDissemination:
    def test_expired_broker_never_disseminated_to(self):
        # b0 has a short lease, b1 a permanent one.  After b0's lease
        # lapses -- with sweeps too rare to have evicted it -- a
        # discovery request must reach only b1.
        w = World(
            n_brokers=2,
            bdn_config=BDNConfig(injection="all", ping_interval=500.0),
            register=False,
            client_config=ClientConfig(
                bdn_endpoints=(Endpoint("bdn0.host", 7000),),
                max_responses=2,
                target_set_size=2,
                response_timeout=2.0,
            ),
        )
        advertise_direct(w.brokers[0], w.bdn.udp_endpoint, ttl=2.0)
        advertise_direct(w.brokers[1], w.bdn.udp_endpoint, ttl=0.0)
        w.sim.run_for(10.0)
        assert "b0" in w.bdn.store  # expired but not yet evicted
        outcome = w.discover()
        assert outcome.success
        assert outcome.selected.broker_id == "b1"
        assert [c.broker_id for c in outcome.candidates] == ["b1"]
        assert w.responders["b0"].requests_processed == 0
        assert w.bdn.stale_targets == 0
