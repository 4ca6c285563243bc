"""ClusterSpec: naming, ports, schedules, serialisation."""

from __future__ import annotations

import pytest

from repro.cluster.spec import ClusterSpec, derive_schedule
from repro.core.config import Endpoint
from repro.discovery.bdn import BDN_UDP_PORT
from repro.discovery.chaos import ChaosWorld
from repro.substrate.broker import BROKER_LINK_PORT, BROKER_TCP_PORT, BROKER_UDP_PORT


class TestRoles:
    def test_role_order_is_bdns_brokers_load(self):
        spec = ClusterSpec(n_bdns=2, n_brokers=3, n_clients=1)
        assert spec.roles() == ["bdn:0", "bdn:1", "broker:0", "broker:1", "broker:2", "load"]

    def test_broker_binds_three_endpoints(self):
        spec = ClusterSpec()
        assert spec.endpoints_of("broker:1") == [
            Endpoint("b1.local", BROKER_UDP_PORT),
            Endpoint("b1.local", BROKER_TCP_PORT),
            Endpoint("b1.local", BROKER_LINK_PORT),
        ]

    def test_load_binds_every_client(self):
        spec = ClusterSpec(n_clients=3)
        assert [ep.host for ep in spec.endpoints_of("load")] == [
            "c0.host", "c1.host", "c2.host"
        ]

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec().endpoints_of("bystander:0")


class TestPorts:
    def test_assign_ports_covers_every_endpoint_uniquely(self):
        spec = ClusterSpec(n_bdns=3, n_brokers=4, n_clients=2)
        spec.assign_ports()
        endpoints = spec.all_endpoints()
        assert len(spec.ports) == len(endpoints)  # 3 + 4*3 + 2 = 17
        ports = [spec.real_port(ep) for ep in endpoints]
        assert len(set(ports)) == len(ports)

    def test_port_plan_is_subset_for_own_role(self):
        spec = ClusterSpec()
        spec.assign_ports()
        plan = spec.port_plan("bdn:1")
        assert plan == {Endpoint("d1.host", BDN_UDP_PORT): spec.ports["d1.host:7000"]}


class TestSchedules:
    def test_derive_schedule_is_deterministic(self):
        assert derive_schedule(11, 8, 0.2) == derive_schedule(11, 8, 0.2)
        assert derive_schedule(11, 8, 0.2) != derive_schedule(12, 8, 0.2)

    def test_clients_get_disjoint_substreams(self):
        spec = ClusterSpec(seed=5, rounds=6)
        assert spec.client_schedule(0) != spec.client_schedule(1)

    def test_gaps_are_positive(self):
        assert all(g >= 0.0 for g in derive_schedule(3, 100, 0.05))


class TestSerialisation:
    def test_json_roundtrip_preserves_everything(self):
        spec = ClusterSpec(n_bdns=2, n_brokers=3, seed=99, mean_gap=0.4)
        spec.assign_ports()
        clone = ClusterSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.client_schedule(0) == spec.client_schedule(0)

    def test_json_roundtrip_preserves_telemetry_plane_fields(self):
        spec = ClusterSpec(
            telemetry_interval=0.5,
            slo_window=2.5,
            slo_latency_budget=0.1,
            admission_control=False,
            profile_rate=97.0,
            profile_roles=("load", "bdn"),
        )
        clone = ClusterSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.profile_roles == ("load", "bdn")  # tuple, not JSON list

    def test_save_load(self, tmp_path):
        spec = ClusterSpec(seed=21)
        spec.assign_ports()
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ClusterSpec.load(path) == spec


class TestConfigs:
    def test_replication_membership_matches_bdn_tier(self):
        spec = ClusterSpec(n_bdns=3)
        config = spec.replication_config()
        assert [name for name, _ in config.members] == ["d0", "d1", "d2"]
        assert config.quorum_size == 2

    def test_timers_and_retry_policy_are_the_chaos_worlds(self):
        # Read from ChaosWorld, not retyped: the sim and the cluster
        # cannot drift apart on what they are configured with.
        spec = ClusterSpec()
        config = spec.replication_config()
        assert {k: getattr(config, k) for k in ChaosWorld.REPLICATION} == ChaosWorld.REPLICATION
        assert spec.client_config().retry_policy is ChaosWorld.RETRY_POLICY

    def test_single_bdn_runs_unreplicated(self):
        assert ClusterSpec(n_bdns=1).bdn_config().replication is None

    def test_client_multicast_fallback_is_off(self):
        # Aio multicast is emulated per-process: across processes it
        # reaches nobody, so a cluster client must never rely on it.
        assert ClusterSpec().client_config().use_multicast_fallback is False


class TestTelemetryPlane:
    def test_admission_control_switch_zeroes_the_watermark(self):
        protected = ClusterSpec(admission_control=True)
        drilled = ClusterSpec(admission_control=False)
        assert (
            protected.bdn_config().admission_high_watermark
            == protected.admission_watermark
        )
        assert drilled.bdn_config().admission_high_watermark == 0

    def test_slo_config_mirrors_the_spec(self):
        spec = ClusterSpec(slo_window=3.0, queue_capacity=16, p99_bound=2.0,
                           slo_latency_budget=0.5)
        config = spec.slo_config()
        assert config.window == 3.0
        assert config.queue_capacity == 16
        assert config.p99_bound == 2.0
        assert config.latency_budget == 0.5

    def test_profiled_gates_on_rate_and_role_kind(self):
        off = ClusterSpec(profile_rate=0.0)
        assert not off.profiled("load")
        on = ClusterSpec(profile_rate=97.0, profile_roles=("load", "bdn"))
        assert on.profiled("load")
        assert on.profiled("bdn:2")  # kind match, any index
        assert not on.profiled("broker:0")
