"""Tests for the paper-scenario builders (smoke + shape checks).

The heavyweight statistical claims are exercised in ``benchmarks/``;
here we verify that each scenario builds the world the paper describes
and produces sane outcomes quickly.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.substrate.builder import Topology


class TestScenarioSpec:
    def test_unconnected_defaults(self):
        spec = ScenarioSpec.unconnected()
        assert spec.topology == Topology.UNCONNECTED
        assert spec.resolved_injection() == "all"
        assert spec.register == "all"

    def test_star_defaults(self):
        spec = ScenarioSpec.star()
        assert spec.topology == Topology.STAR
        assert spec.resolved_injection() == "closest_farthest"

    def test_linear_registers_head_only(self):
        spec = ScenarioSpec.linear()
        assert spec.register == "head"

    def test_multicast_only_defaults(self):
        spec = ScenarioSpec.multicast_only()
        assert not spec.use_bdn
        assert "bloomington" in spec.lab_sites
        # max_responses matched to in-realm brokers (indianapolis only).
        assert spec.max_responses == 1

    def test_explicit_injection_override(self):
        spec = ScenarioSpec.star(injection="all")
        assert spec.resolved_injection() == "all"


class TestScenarioWorlds:
    def test_unconnected_world(self):
        scenario = DiscoveryScenario(ScenarioSpec.unconnected(seed=1))
        assert len(scenario.brokers) == 5
        assert scenario.net.graph().number_of_edges() == 0
        assert len(scenario.bdn.store) == 5

    def test_star_world(self):
        scenario = DiscoveryScenario(ScenarioSpec.star(seed=1))
        g = scenario.net.graph()
        assert g.number_of_edges() == 4
        assert g.degree["broker-indianapolis"] == 4

    def test_linear_world_registers_head(self):
        scenario = DiscoveryScenario(ScenarioSpec.linear(seed=1))
        g = scenario.net.graph()
        assert g.number_of_edges() == 4
        assert scenario.bdn.store.broker_ids() == ["broker-indianapolis"]

    def test_multicast_world_has_no_bdn(self):
        scenario = DiscoveryScenario(ScenarioSpec.multicast_only(seed=1))
        assert scenario.bdn is None
        assert scenario.client.config.bdn_endpoints == ()


class TestScenarioRuns:
    def test_unconnected_discovery_succeeds(self):
        scenario = DiscoveryScenario(ScenarioSpec.unconnected(seed=2))
        outcome = scenario.run_one()
        assert outcome.success
        assert outcome.via == "bdn"
        assert len(outcome.candidates) >= 4

    def test_linear_discovery_reaches_chain_end(self):
        scenario = DiscoveryScenario(ScenarioSpec.linear(seed=2))
        outcome = scenario.run_one()
        assert outcome.success
        # All five respond even though only the head is registered.
        assert len(outcome.candidates) == 5

    def test_multicast_discovery_in_lab_only(self):
        scenario = DiscoveryScenario(
            ScenarioSpec.multicast_only(seed=2, lab_sites=("bloomington", "indianapolis", "urbana"))
        )
        outcome = scenario.run_one()
        assert outcome.success
        assert outcome.via == "multicast"
        assert {c.broker_id for c in outcome.candidates} <= {
            "broker-indianapolis",
            "broker-urbana",
        }

    def test_total_times_and_percentages_helpers(self):
        scenario = DiscoveryScenario(ScenarioSpec.unconnected(seed=3))
        outcomes = scenario.run(runs=3)
        times = scenario.total_times_ms(outcomes)
        assert len(times) == 3
        assert all(t > 0 for t in times)
        pcts = scenario.mean_phase_percentages(outcomes)
        assert sum(pcts.values()) == pytest.approx(100.0, abs=1.0)

    def test_mean_percentages_empty_for_failures(self):
        scenario = DiscoveryScenario(ScenarioSpec.unconnected(seed=3))
        assert scenario.mean_phase_percentages([]) == {}

    def test_seed_reproducibility(self):
        a = DiscoveryScenario(ScenarioSpec.unconnected(seed=9)).run_one()
        b = DiscoveryScenario(ScenarioSpec.unconnected(seed=9)).run_one()
        assert a.total_time == b.total_time
        assert a.selected.broker_id == b.selected.broker_id
