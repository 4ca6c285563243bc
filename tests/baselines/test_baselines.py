"""Tests for the related-work baseline selectors (paper section 10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    DistanceOracle,
    GNPSelector,
    IDMapsSelector,
    LandmarkSelector,
    PingAllSelector,
    RandomSelector,
    RendezvousSelector,
    StaticSelector,
    TiersSelector,
    optimal_broker,
)
from repro.topology.generators import random_waxman_sites
from repro.topology.sites import paper_latency_model


@pytest.fixture
def waxman_world():
    """30 random sites, 15 brokers, a client, 4 landmarks, no jitter noise."""
    rng = np.random.default_rng(17)
    latency = random_waxman_sites(30, rng, jitter_sigma=0.0)
    oracle = DistanceOracle(latency, rng)
    brokers = {f"b{i:02d}": latency.sites[i] for i in range(0, 30, 2)}
    client = latency.sites[27]
    landmarks = tuple(latency.sites[i] for i in (1, 9, 17, 23))
    return rng, latency, oracle, brokers, client, landmarks


class TestOracle:
    def test_true_rtt_is_twice_one_way(self):
        latency = paper_latency_model(jitter_sigma=0.0)
        oracle = DistanceOracle(latency, np.random.default_rng(0))
        assert oracle.true_rtt("bloomington", "indianapolis") == pytest.approx(0.004)

    def test_probe_accounting(self, waxman_world):
        _, _, oracle, brokers, client, _ = waxman_world
        oracle.measure_rtt(client, brokers["b00"], samples=3)
        assert oracle.probes == 3

    def test_measurement_noise_positive_and_near_truth(self, waxman_world):
        _, _, oracle, brokers, client, _ = waxman_world
        true = oracle.true_rtt(client, brokers["b00"])
        measured = oracle.measure_rtt(client, brokers["b00"], samples=8)
        assert measured > 0
        assert measured == pytest.approx(true, rel=0.2)

    def test_invalid_samples(self, waxman_world):
        _, _, oracle, brokers, client, _ = waxman_world
        with pytest.raises(ValueError):
            oracle.measure_rtt(client, brokers["b00"], samples=0)

    def test_optimal_broker(self, waxman_world):
        _, _, oracle, brokers, client, _ = waxman_world
        best, rtt = optimal_broker(client, brokers, oracle)
        assert rtt == min(oracle.true_rtt(client, s) for s in brokers.values())

    def test_optimal_requires_brokers(self, waxman_world):
        _, _, oracle, _, client, _ = waxman_world
        with pytest.raises(ValueError):
            optimal_broker(client, {}, oracle)


class TestSimpleSelectors:
    def test_static_uses_configured_broker(self, waxman_world):
        """The well-known broker is the lexically first one."""
        rng, _, oracle, brokers, client, _ = waxman_world
        result = StaticSelector().select(client, brokers, oracle, rng)
        assert result.broker == "b00"
        assert result.probes == 0

    def test_random_picks_valid_broker(self, waxman_world):
        rng, _, oracle, brokers, client, _ = waxman_world
        for _ in range(10):
            result = RandomSelector().select(client, brokers, oracle, rng)
            assert result.broker in brokers

    def test_ping_all_finds_optimum(self, waxman_world):
        rng, _, oracle, brokers, client, _ = waxman_world
        best, _ = optimal_broker(client, brokers, oracle)
        result = PingAllSelector(samples=4).select(client, brokers, oracle, rng)
        assert result.broker == best
        assert result.probes == 4 * len(brokers)


class TestInfrastructureSelectors:
    @pytest.mark.parametrize("selector_name", ["idmaps", "landmarks", "gnp", "tiers"])
    def test_quality_beats_random(self, waxman_world, selector_name):
        """Every informed baseline must beat random choice on average."""
        rng, latency, oracle, brokers, client, landmarks = waxman_world
        selectors = {
            "idmaps": IDMapsSelector(landmarks),
            "landmarks": LandmarkSelector(landmarks),
            "gnp": GNPSelector(landmarks, dims=2),
            "tiers": TiersSelector(landmarks),
        }
        selector = selectors[selector_name]
        _, best_rtt = optimal_broker(client, brokers, oracle)

        def avg_inflation(sel, n=5):
            total = 0.0
            for i in range(n):
                result = sel.select(client, brokers, oracle, np.random.default_rng(100 + i))
                total += oracle.true_rtt(client, brokers[result.broker]) / best_rtt
            return total / n

        informed = avg_inflation(selector)
        random_inflation = avg_inflation(RandomSelector(), n=20)
        assert informed < random_inflation

    def test_idmaps_probes_scale_with_tracers(self, waxman_world):
        rng, _, oracle, brokers, client, landmarks = waxman_world
        result = IDMapsSelector(landmarks).select(client, brokers, oracle, rng)
        assert result.probes == len(landmarks)

    def test_landmarks_probes_equal_landmark_count(self, waxman_world):
        rng, _, oracle, brokers, client, landmarks = waxman_world
        result = LandmarkSelector(landmarks).select(client, brokers, oracle, rng)
        assert result.probes == len(landmarks)

    def test_gnp_requires_enough_landmarks(self):
        with pytest.raises(ValueError):
            GNPSelector(("a", "b"), dims=2)

    def test_gnp_embeds_grid_accurately(self):
        """On a plane (metric space) GNP should find a near-optimal broker."""
        rng = np.random.default_rng(3)
        latency = random_waxman_sites(16, rng, jitter_sigma=0.0)
        oracle = DistanceOracle(latency, rng)
        brokers = {f"b{i}": latency.sites[i] for i in range(0, 16, 2)}
        client = latency.sites[15]
        landmarks = (latency.sites[0], latency.sites[3], latency.sites[12], latency.sites[5])
        result = GNPSelector(landmarks, dims=2).select(client, brokers, oracle, rng)
        _, best = optimal_broker(client, brokers, oracle)
        chosen_rtt = oracle.true_rtt(client, brokers[result.broker])
        assert chosen_rtt <= 2.5 * best

    def test_tiers_probes_fewer_than_ping_all(self, waxman_world):
        rng, _, oracle, brokers, client, landmarks = waxman_world
        tiers = TiersSelector(landmarks).select(client, brokers, oracle, rng)
        oracle.probes = 0
        all_pings = PingAllSelector(samples=1).select(client, brokers, oracle, rng)
        assert tiers.probes < all_pings.probes

    def test_rendezvous_limited_by_knowledge(self, waxman_world):
        rng, _, oracle, brokers, client, _ = waxman_world
        result = RendezvousSelector(
            rendezvous_site=brokers["b00"], known_fraction=0.4
        ).select(client, brokers, oracle, rng)
        assert result.broker in brokers
        # 1 rendezvous query + one ping per known broker.
        expected_known = max(1, int(round(0.4 * len(brokers))))
        assert result.probes == 1 + expected_known

    def test_rendezvous_full_knowledge_matches_ping_all(self, waxman_world):
        rng, _, oracle, brokers, client, _ = waxman_world
        best, _ = optimal_broker(client, brokers, oracle)
        result = RendezvousSelector(
            rendezvous_site=brokers["b00"], known_fraction=1.0
        ).select(client, brokers, oracle, rng)
        assert result.broker == best

    def test_rendezvous_validation(self):
        with pytest.raises(ValueError):
            RendezvousSelector("site", known_fraction=0.0)

    def test_landmark_validation(self):
        with pytest.raises(ValueError):
            LandmarkSelector(())

    def test_idmaps_validation(self):
        with pytest.raises(ValueError):
            IDMapsSelector(())

    def test_tiers_validation(self):
        with pytest.raises(ValueError):
            TiersSelector(())

    def test_tiers_single_cluster_degenerates_gracefully(self, waxman_world):
        rng, _, oracle, brokers, client, landmarks = waxman_world
        pair = {name: brokers[name] for name in sorted(brokers)[:2]}  # one cluster
        result = TiersSelector(landmarks).select(client, pair, oracle, rng)
        assert result.broker in pair
