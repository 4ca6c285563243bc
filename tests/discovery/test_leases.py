"""Advertisement leases: TTLs, heartbeat renewal, and BDN eviction."""

from __future__ import annotations

import math

import pytest

from repro.core.config import BDNConfig, ClientConfig, Endpoint
from repro.core.messages import AdvertisementAck, BrokerAdvertisement
from repro.discovery.advertisement import (
    advertise_direct,
    build_advertisement,
    start_heartbeat,
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
            start_heartbeat(broker, [w.bdn.udp_endpoint], interval=2.0)
        # Default lease is 3 heartbeats = 6 s; run far past it.
        w.sim.run_for(30.0)
        assert w.bdn.store.broker_ids(w.sim.now) == ["b0", "b1"]
        assert w.bdn.store.leases_expired == 0

    def test_dead_broker_lease_lapses_and_is_evicted(self):
        w = self._world()
        for broker in w.brokers:
            start_heartbeat(broker, [w.bdn.udp_endpoint], interval=2.0)
        w.sim.run_for(10.0)
        w.brokers[0].stop()
        # Lease (6 s) lapses, then the next sweep (every 4 s) evicts.
        w.sim.run_for(12.0)
        assert "b0" not in w.bdn.store
        assert w.bdn.store.leases_expired >= 1
        assert w.bdn.store.broker_ids(w.sim.now) == ["b1"]

    def test_heartbeat_resumes_after_revive(self):
        w = self._world()
        series = start_heartbeat(w.brokers[0], [w.bdn.udp_endpoint], interval=2.0)
        w.sim.run_for(10.0)
        w.brokers[0].stop()
        w.sim.run_for(12.0)
        assert "b0" not in w.bdn.store
        w.brokers[0].start()
        w.sim.run_for(6.0)
        assert "b0" in w.bdn.store
        series.cancel()

    # One heartbeat for plain BDNs and replicated groups alike.  Fake BDN
    # endpoints record (time, ad); a fake group member acks every ad it
    # hears, naming ``leader`` the way a replicated BDN does.
    @staticmethod
    def _fake_bdns(w, n, leader=None):
        endpoints = [Endpoint(f"fake-bdn{k}.host", 7000) for k in range(n)]
        heard = {endpoint: [] for endpoint in endpoints}
        for k, endpoint in enumerate(endpoints):
            w.net.network.register_host(endpoint.host, f"fake-site{k}")

            def on_ad(message, src, endpoint=endpoint):
                if not isinstance(message, BrokerAdvertisement):
                    return
                heard[endpoint].append((w.sim.now, message))
                if leader is not None:
                    ack = AdvertisementAck(
                        broker_id=message.broker_id,
                        bdn=endpoint.host,
                        leader_hint=str(endpoints[leader]),
                    )
                    w.net.network.send_udp(endpoint, src, ack)

            w.net.network.bind_udp(endpoint, on_ad)
        return endpoints, heard

    @staticmethod
    def _count(heard, endpoint, start, end):
        return sum(1 for t, _ in heard[endpoint] if start <= t < end)

    def test_reattach_after_restart_renews_with_the_group(self):
        w = self._world()
        responder = w.responders["b0"]
        group, heard = self._fake_bdns(w, 3, leader=1)
        responder.attach_heartbeat(group, interval=1.0)
        w.sim.run_for(2.5)
        assert responder.heartbeat.leader == group[1]
        responder.stop()
        responder.start()
        restarted = w.sim.now
        responder.attach_heartbeat(group, interval=1.0)
        w.sim.run_for(3.5)
        assert responder.heartbeat.leader == group[1]
        renewals = [ad for t, ad in heard[group[1]] if t >= restarted + 1.0]
        assert len(renewals) == 3
        assert all(ad.ttl == 3.0 for ad in renewals)

    def test_silent_group_gets_the_startup_burst(self):
        w = self._world()
        group, heard = self._fake_bdns(w, 2)
        start = w.sim.now
        w.responders["b0"].attach_heartbeat(group, interval=30.0)
        w.sim.run_for(1.5)
        for endpoint in group:
            assert self._count(heard, endpoint, start, start + 1.5) == 3

    def test_plain_bdns_get_a_burst_then_one_ad_per_interval(self):
        w = self._world()
        bdns, heard = self._fake_bdns(w, 2)
        start = w.sim.now
        w.responders["b0"].attach_heartbeat(bdns, interval=2.0)
        w.sim.run_for(7.0)
        for endpoint in bdns:
            assert self._count(heard, endpoint, start, start + 1.5) == 3
            assert self._count(heard, endpoint, start + 1.5, start + 7.0) == 3

    def test_healthy_group_is_renewed_at_the_leader_only(self):
        w = self._world()
        group, heard = self._fake_bdns(w, 3, leader=2)
        start = w.sim.now
        w.responders["b0"].attach_heartbeat(group, interval=2.0)
        w.sim.run_for(7.0)
        # Before the first interval: the first beat reaches every member,
        # and homing renews at the leader at once.
        assert [self._count(heard, e, start, start + 2.0) for e in group] == [1, 1, 2]
        # After it: one renewal per interval, at the leader alone.
        assert [self._count(heard, e, start + 2.0, start + 7.0) for e in group] == [0, 0, 3]


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
