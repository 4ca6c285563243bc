"""Tests for the discovery client state machine (paper sections 3, 6, 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ClientConfig, Endpoint
from repro.core.errors import DiscoveryError
from repro.discovery.requester import (
    PING_TIE_ABSOLUTE,
    PING_TIE_RELATIVE,
    CachedTarget,
    DiscoveryClient,
)
from repro.experiments.harness import run_discovery_once
from repro.simnet.latency import MatrixLatencyModel
from repro.simnet.loss import UniformLoss
from repro.substrate.builder import Topology
from tests.discovery.conftest import World


class TestHappyPath:
    def test_selects_a_broker(self, small_world):
        outcome = small_world.discover()
        assert outcome.success
        assert outcome.selected is not None
        assert outcome.via == "bdn"
        assert outcome.transmissions == 1
        assert outcome.bdn_used == small_world.bdn.udp_endpoint

    def test_selected_broker_is_among_lowest_ping_rtts(self, small_world):
        outcome = small_world.discover()
        assert outcome.ping_rtts
        best = min(outcome.ping_rtts.values())
        threshold = best * (1.0 + PING_TIE_RELATIVE) + PING_TIE_ABSOLUTE
        # The winner is within the near-tie band of the measured minimum.
        assert outcome.ping_rtts[outcome.selected.broker_id] <= threshold
        assert outcome.selected_rtt == outcome.ping_rtts[outcome.selected.broker_id]

    def test_distinct_rtts_select_strict_minimum(self):
        """With RTTs separated by more than the tie band the lowest-delay
        broker wins outright (the paper's core rule)."""
        # One-way ms from the client to b0, b1, b2: 40, 5, 20.
        sites = ("s0", "s1", "s2", "bdn-site", "client-site")
        one_way_ms = np.full((5, 5), 10.0)
        np.fill_diagonal(one_way_ms, 0.1)
        for i, ms in enumerate((40.0, 5.0, 20.0)):
            one_way_ms[i, 4] = one_way_ms[4, i] = ms
        world = World(n_brokers=3, seed=2, latency=MatrixLatencyModel(sites, one_way_ms))
        outcome = world.discover()
        assert outcome.success
        assert len(outcome.ping_rtts) == 3
        best, second = sorted(outcome.ping_rtts.values())[:2]
        assert second > best * (1.0 + PING_TIE_RELATIVE) + PING_TIE_ABSOLUTE
        assert outcome.selected.broker_id == "b1"
        assert outcome.selected_rtt == best

    def test_all_brokers_respond(self, small_world):
        outcome = small_world.discover()
        assert {c.broker_id for c in outcome.candidates} == {"b0", "b1", "b2"}

    def test_target_set_bounded(self, small_world):
        outcome = small_world.discover()
        assert 1 <= len(outcome.target_set) <= 3
        # T is a subset of N (section 9: size(T) <= size(N)).
        assert {t.broker_id for t in outcome.target_set} <= {
            c.broker_id for c in outcome.candidates
        }

    def test_phases_all_recorded(self, small_world):
        outcome = small_world.discover()
        durations = outcome.phases.durations()
        for name in (
            "issue_request",
            "wait_initial_responses",
            "process_responses",
            "ping_target_set",
            "final_decision",
        ):
            assert name in durations
            assert durations[name] >= 0.0
        assert outcome.phases.total() == pytest.approx(outcome.total_time, rel=0.05)

    def test_target_set_cached_for_reconnect(self, small_world):
        outcome = small_world.discover()
        cached = small_world.client.last_target_set
        assert [c.broker_id for c in cached] == [t.broker_id for t in outcome.target_set]

    def test_sequential_discoveries(self, small_world):
        first = small_world.discover()
        small_world.sim.run_for(1.0)
        second = small_world.discover()
        assert first.success and second.success
        assert first.request_uuid != second.request_uuid

    def test_concurrent_discovery_rejected(self, small_world):
        small_world.client.discover(lambda o: None)
        with pytest.raises(DiscoveryError):
            small_world.client.discover(lambda o: None)
        small_world.sim.run_for(30.0)  # drain

    def test_unstarted_client_rejected(self, small_world):
        fresh = DiscoveryClient(
            "c2",
            "c2.host",
            small_world.net.network,
            np.random.default_rng(0),
            config=small_world.client.config,
            site="cx",
        )
        with pytest.raises(DiscoveryError):
            fresh.discover(lambda o: None)


class TestCollectionStopping:
    def test_max_responses_stops_early(self):
        world = World(
            n_brokers=4,
            client_config=None,
        )
        # Rebuild client config: stop after 2 responses.
        cfg = ClientConfig(
            bdn_endpoints=(world.bdn.udp_endpoint,),
            max_responses=2,
            target_set_size=2,
            response_timeout=5.0,
        )
        client = DiscoveryClient(
            "c-early", "c-early.host", world.net.network, np.random.default_rng(9),
            config=cfg, site="cs2",
        )
        client.start()
        world.sim.run_for(6.0)
        outcome = run_discovery_once(client)
        assert outcome.success
        assert len(outcome.candidates) == 2
        # Collection ended long before the 5 s timeout.
        assert outcome.phases.duration("wait_initial_responses") < 2.0

    def test_timeout_bounds_collection(self):
        world = World(n_brokers=2, injection="single")  # only 1 broker answers
        outcome = world.discover()
        assert outcome.success
        assert len(outcome.candidates) == 1
        # Window ran its full course (2.0 s in the fixture config).
        assert outcome.phases.duration("wait_initial_responses") >= 1.5

    def test_late_responses_counted(self):
        world = World(n_brokers=4, client_config=ClientConfig(
            bdn_endpoints=(),  # overwritten below
            max_responses=1,
            target_set_size=1,
        ))
        cfg = ClientConfig(
            bdn_endpoints=(world.bdn.udp_endpoint,),
            max_responses=1,
            target_set_size=1,
            response_timeout=2.0,
        )
        client = DiscoveryClient(
            "c-late", "c-late.host", world.net.network, np.random.default_rng(4),
            config=cfg, site="cs3",
        )
        client.start()
        world.sim.run_for(6.0)
        outcome = run_discovery_once(client)
        world.sim.run_for(3.0)  # let the other 3 responses arrive late
        assert outcome.success
        assert client.late_responses >= 1


class TestRetransmissionAndFallback:
    def test_dead_bdn_retransmit_then_next_bdn(self):
        world = World(n_brokers=2)
        live_bdn = world.bdn.udp_endpoint
        dead = Endpoint("dead-bdn.host", 7000)
        world.net.network.register_host("dead-bdn.host", "nowhere")
        cfg = ClientConfig(
            bdn_endpoints=(dead, live_bdn),
            max_responses=2,
            target_set_size=2,
            response_timeout=2.0,
            retransmit_interval=0.5,
            max_retransmits=1,
        )
        client = DiscoveryClient(
            "c-fb", "c-fb.host", world.net.network, np.random.default_rng(5),
            config=cfg, site="cs4",
        )
        client.start()
        world.sim.run_for(6.0)
        outcome = run_discovery_once(client)
        assert outcome.success
        assert outcome.via == "bdn"
        assert outcome.bdn_used == live_bdn
        assert outcome.transmissions >= 3  # dead, dead-retry, live

    def test_multicast_fallback_when_all_bdns_dead(self):
        """Section 7: the approach works with zero functioning BDNs."""
        world = World(n_brokers=3, shared_realm="lab")
        world.bdn.stop()
        outcome = world.discover()
        assert outcome.success
        assert outcome.via == "multicast"
        assert {c.broker_id for c in outcome.candidates} == {"b0", "b1", "b2"}

    def test_no_bdns_configured_goes_straight_to_multicast(self):
        world = World(n_brokers=2, shared_realm="lab", client_config=ClientConfig(
            bdn_endpoints=(),
            max_responses=2,
            target_set_size=2,
            response_timeout=2.0,
        ))
        outcome = world.discover()
        assert outcome.success
        assert outcome.via == "multicast"
        assert outcome.bdn_used is None

    def test_multicast_scoped_to_realm(self):
        """Brokers outside the client's realm never hear the multicast."""
        world = World(n_brokers=3, client_realm="lab")  # brokers in own realms
        world.bdn.stop()
        outcome = world.discover()
        assert not outcome.success  # nothing reachable, no cache

    def test_cached_target_set_fallback(self):
        """Section 7: after a prolonged disconnect with every BDN down,
        the node re-issues the request to its last target set."""
        world = World(n_brokers=3)  # distinct realms: multicast can't help
        first = world.discover()
        assert first.success
        world.bdn.stop()
        world.sim.run_for(1.0)
        second = world.discover()
        assert second.success
        assert second.via == "cached"
        assert {c.broker_id for c in second.candidates} >= {
            t.broker_id for t in first.target_set
        } - set()  # cached targets answered

    def test_total_failure_reports_unsuccessful(self):
        world = World(n_brokers=1)
        world.bdn.stop()
        for broker in world.brokers:
            broker.stop()
        outcome = world.discover()
        assert not outcome.success
        assert outcome.selected is None
        assert outcome.candidates == []

    def test_request_loss_recovered_by_retransmission(self):
        """Section 7: 'sustains loss of ... discovery requests
        (retransmission after predefined period of inactivity)'."""
        world = World(n_brokers=2, loss=UniformLoss(0.4), seed=11)
        cfg = ClientConfig(
            bdn_endpoints=(world.bdn.udp_endpoint,),
            max_responses=2,
            target_set_size=2,
            response_timeout=1.5,
            retransmit_interval=0.5,
            max_retransmits=5,
        )
        client = DiscoveryClient(
            "c-loss", "c-loss.host", world.net.network, np.random.default_rng(6),
            config=cfg, site="cs5",
        )
        client.start()
        world.sim.run_for(6.0)
        successes = 0
        for _ in range(10):
            outcome = run_discovery_once(client)
            successes += outcome.success
            world.sim.run_for(1.0)
        assert successes >= 8  # retransmission rides out 40% loss


class TestPingPhase:
    def test_unpingable_target_excluded_from_rtts(self):
        world = World(n_brokers=3)
        # Kill one broker after it responds: trick -- stop it during the
        # ping phase by stopping right after collection would finish.
        outcome = world.discover()
        assert outcome.success
        # now kill a broker and rediscover: its response still arrives
        # (it is dead, so actually it will not respond at all this time)
        world.brokers[2].stop()
        world.sim.run_for(0.5)
        second = world.discover()
        assert second.success
        assert "b2" not in second.ping_rtts

    def test_selection_without_pongs_falls_back_to_score(self):
        """If every ping is lost the client still picks the top-scored
        target (heavy-loss degradation path)."""
        world = World(n_brokers=2)
        client = world.client
        outcome_holder = []
        client.discover(outcome_holder.append)
        # Let collection finish (2.0 s timeout + margin), then black out
        # the network before any pong returns.
        world.sim.run_for(0.25)
        world.net.network.loss = UniformLoss(0.999999)
        deadline = world.sim.now + 60
        while not outcome_holder and world.sim.now < deadline:
            if not world.sim.step():
                break
        assert outcome_holder
        outcome = outcome_holder[0]
        if outcome.success:  # responses arrived before the blackout
            assert outcome.ping_rtts == {} or outcome.selected_rtt is not None


class TestCachedTarget:
    def test_endpoint_helper(self):
        target = CachedTarget(broker_id="b", host="h.x", udp_port=5046)
        assert target.udp_endpoint == Endpoint("h.x", 5046)


class TestFallbackExhaustion:
    """Every rung of the fallback ladder removed: the client must end in
    a terminal failed outcome, never hang."""

    def _no_multicast_config(self, endpoints) -> ClientConfig:
        return ClientConfig(
            bdn_endpoints=endpoints,
            max_responses=2,
            target_set_size=2,
            response_timeout=1.0,
            retransmit_interval=0.5,
            max_retransmits=1,
            use_multicast_fallback=False,
        )

    def test_dead_bdn_no_multicast_empty_cache_fails_terminally(self):
        world = World(n_brokers=2, shared_realm="lab")
        world.bdn.stop()
        cfg = self._no_multicast_config((world.bdn.udp_endpoint,))
        client = DiscoveryClient(
            "c-exhausted", "c-ex.host", world.net.network, np.random.default_rng(3),
            config=cfg, site="cs-ex", realm="lab",
        )
        client.start()
        world.sim.run_for(1.0)
        # run_discovery_once raises if the run never completes, so a
        # returned outcome is itself proof of termination.
        outcome = run_discovery_once(client)
        assert not outcome.success
        assert outcome.selected is None
        # initial send + 1 retransmit, then straight to failure: the
        # disabled multicast and empty cache add no transmissions.
        assert outcome.transmissions == 2
        assert outcome.total_time < 5.0
        assert outcome.phases.open_phase is None

    def test_no_bdns_no_multicast_empty_cache_fails_immediately(self):
        world = World(n_brokers=2, shared_realm="lab")
        cfg = self._no_multicast_config(())
        client = DiscoveryClient(
            "c-nothing", "c-no.host", world.net.network, np.random.default_rng(4),
            config=cfg, site="cs-no", realm="lab",
        )
        client.start()
        world.sim.run_for(1.0)
        outcome = run_discovery_once(client)
        assert not outcome.success
        assert outcome.transmissions == 0
        assert outcome.bdn_used is None
        assert outcome.total_time < 1.0

    def test_multicast_disabled_on_network_falls_through(self):
        """use_multicast_fallback=True but the client's host has no
        multicast service: same terminal failure, no hang."""
        world = World(n_brokers=2, shared_realm="lab")
        world.bdn.stop()
        cfg = ClientConfig(
            bdn_endpoints=(world.bdn.udp_endpoint,),
            max_responses=2,
            target_set_size=2,
            response_timeout=1.0,
            retransmit_interval=0.5,
            max_retransmits=1,
        )
        client = DiscoveryClient(
            "c-nomc", "c-nomc.host", world.net.network, np.random.default_rng(5),
            config=cfg, site="cs-nomc", realm="lab", multicast_enabled=False,
        )
        client.start()
        world.sim.run_for(1.0)
        outcome = run_discovery_once(client)
        assert not outcome.success
        assert outcome.selected is None

    def test_failure_is_recoverable(self):
        """A terminal failure leaves the client reusable: revive the
        BDN and the same client succeeds."""
        world = World(n_brokers=2, shared_realm="lab")
        world.bdn.stop()
        cfg = self._no_multicast_config((world.bdn.udp_endpoint,))
        client = DiscoveryClient(
            "c-again", "c-again.host", world.net.network, np.random.default_rng(9),
            config=cfg, site="cs-again", realm="lab",
        )
        client.start()
        world.sim.run_for(1.0)
        assert not run_discovery_once(client).success
        world.bdn.start()
        world.sim.run_for(1.0)
        outcome = run_discovery_once(client)
        assert outcome.success
        assert outcome.via == "bdn"


class TestRediscover:
    def test_rediscover_uses_cache_without_bdn_round_trip(self):
        world = World(n_brokers=3)
        first = world.discover()
        assert first.success
        requests_before = world.bdn.requests_received
        outcomes = []
        world.client.rediscover(outcomes.append)
        world.sim.run_for(10.0)
        assert outcomes and outcomes[0].success
        assert outcomes[0].via == "cached"
        assert outcomes[0].bdn_used is None
        assert world.bdn.requests_received == requests_before

    def test_rediscover_without_cache_raises(self, small_world):
        with pytest.raises(DiscoveryError):
            small_world.client.rediscover(lambda outcome: None)

    def test_rediscover_while_in_flight_raises(self, small_world):
        small_world.client.discover(lambda outcome: None)
        with pytest.raises(DiscoveryError):
            small_world.client.rediscover(lambda outcome: None)

    def test_last_selected_recorded(self, small_world):
        outcome = small_world.discover()
        assert outcome.success
        selected = small_world.client.last_selected
        assert selected is not None
        assert selected.broker_id == outcome.selected.broker_id


class TestWatchSelected:
    def test_watch_triggers_cached_rediscovery_on_broker_death(self):
        world = World(n_brokers=3)
        first = world.discover()
        assert first.success
        chosen = world.net.brokers[first.selected.broker_id]
        outcomes = []
        world.client.watch_selected(outcomes.append, interval=0.5, max_missed=2)
        world.sim.run_for(3.0)
        assert outcomes == []  # broker healthy, no rediscovery
        chosen.stop()
        world.sim.run_for(10.0)
        assert outcomes, "watch never reacted to the dead broker"
        assert outcomes[0].via == "cached"
        assert outcomes[0].success
        assert outcomes[0].selected.broker_id != chosen.name

    def test_watch_requires_a_selection(self, small_world):
        with pytest.raises(DiscoveryError):
            small_world.client.watch_selected(lambda outcome: None)

    def test_watch_handle_cancellable(self):
        world = World(n_brokers=2)
        assert world.discover().success
        series = world.client.watch_selected(lambda outcome: None, interval=0.5)
        series.cancel()
        world.net.brokers[world.client.last_selected.broker_id].stop()
        world.sim.run_for(5.0)
        assert world.client._run is None  # no rediscovery started
