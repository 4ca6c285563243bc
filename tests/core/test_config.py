"""Validation tests for node configuration records."""

from __future__ import annotations

import pytest

from repro.core.config import (
    BDNConfig,
    BrokerConfig,
    ClientConfig,
    Endpoint,
    ResponsePolicyConfig,
)
from repro.core.errors import ConfigError


class TestEndpoint:
    def test_fields(self):
        ep = Endpoint("host.example", 5045)
        assert ep.host == "host.example"
        assert ep.port == 5045

    def test_is_hashable_and_comparable(self):
        assert Endpoint("a", 1) == Endpoint("a", 1)
        assert len({Endpoint("a", 1), Endpoint("a", 1), Endpoint("a", 2)}) == 2


class TestResponsePolicy:
    def test_default_permits_everything(self):
        policy = ResponsePolicyConfig()
        assert policy.permits(frozenset(), "anywhere")

    def test_credential_requirement(self):
        policy = ResponsePolicyConfig(required_credentials=frozenset({"grid-user"}))
        assert not policy.permits(frozenset(), "lab")
        assert not policy.permits(frozenset({"other"}), "lab")
        assert policy.permits(frozenset({"grid-user"}), "lab")
        assert policy.permits(frozenset({"grid-user", "extra"}), "lab")

    def test_realm_restriction(self):
        policy = ResponsePolicyConfig(allowed_realms=frozenset({"lab"}))
        assert policy.permits(frozenset(), "lab")
        assert not policy.permits(frozenset(), "wan")

    def test_combined_restrictions(self):
        policy = ResponsePolicyConfig(
            required_credentials=frozenset({"c"}), allowed_realms=frozenset({"lab"})
        )
        assert policy.permits(frozenset({"c"}), "lab")
        assert not policy.permits(frozenset({"c"}), "wan")
        assert not policy.permits(frozenset(), "lab")


class TestBrokerConfig:
    def test_defaults(self):
        cfg = BrokerConfig()
        assert cfg.dedup_capacity == 1000  # the paper's default
        assert cfg.advertise is True

    def test_dedup_capacity_validated(self):
        with pytest.raises(ConfigError):
            BrokerConfig(dedup_capacity=0)


class TestBDNConfig:
    def test_defaults(self):
        cfg = BDNConfig()
        assert cfg.injection == "closest_farthest"

    def test_injection_validated(self):
        with pytest.raises(ConfigError):
            BDNConfig(injection="teleport")

    @pytest.mark.parametrize("mode", ["closest_farthest", "single", "all"])
    def test_all_injection_modes_accepted(self, mode):
        assert BDNConfig(injection=mode).injection == mode

    def test_ping_interval_validated(self):
        with pytest.raises(ConfigError):
            BDNConfig(ping_interval=0.0)

    def test_fanout_delay_validated(self):
        with pytest.raises(ConfigError):
            BDNConfig(fanout_delay=0.0)


class TestClientConfig:
    def test_defaults_are_paper_like(self):
        cfg = ClientConfig()
        assert 4.0 <= cfg.response_timeout <= 5.0  # "typically 4-5 seconds"
        assert cfg.target_set_size == 10  # "typically ... around 10 brokers"

    def test_timeout_validated(self):
        with pytest.raises(ConfigError):
            ClientConfig(response_timeout=0.0)

    def test_target_set_cannot_exceed_max_responses(self):
        with pytest.raises(ConfigError):
            ClientConfig(max_responses=5, target_set_size=6)

    def test_target_set_equal_to_max_allowed(self):
        ClientConfig(max_responses=5, target_set_size=5)

    def test_ping_repeats_validated(self):
        with pytest.raises(ConfigError):
            ClientConfig(ping_repeats=0)

    def test_retransmit_validated(self):
        with pytest.raises(ConfigError):
            ClientConfig(retransmit_interval=0.0)
        with pytest.raises(ConfigError):
            ClientConfig(max_retransmits=-1)

    def test_min_responses_validated(self):
        with pytest.raises(ConfigError):
            ClientConfig(min_responses=0)

    def test_min_responses_cannot_exceed_max_responses(self):
        """Collection stops at N, so a floor above N could never be met:
        every deadline would count as a thin sample."""
        with pytest.raises(ConfigError):
            ClientConfig(max_responses=5, target_set_size=5, min_responses=6)

    def test_min_responses_equal_to_max_allowed(self):
        ClientConfig(max_responses=5, target_set_size=5, min_responses=5)

    def test_bdn_endpoints_tuple(self):
        cfg = ClientConfig(
            bdn_endpoints=(
                Endpoint("gridservicelocator.org", 7000),
                Endpoint("gridservicelocator.com", 7000),
            )
        )
        assert len(cfg.bdn_endpoints) == 2
