"""Exporter formats: JSON snapshot round-trip and Prometheus text."""

from __future__ import annotations

import json

import pytest

from repro.obs import Observability
from repro.obs.export import prometheus_text, telemetry_snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import assemble, assemble_from_snapshot, complete_request_ids
from tests.obs import emitter

TID = "req-0001"


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _observed_world() -> Observability:
    clock = _Clock()
    obs = Observability(clock=clock)
    client, bdn = emitter(obs, "client"), emitter(obs, "bdn")
    client("phase", TID, phase="issue_request")
    client("request_sent", TID, kind="DiscoveryRequest")
    clock.now = 0.01
    bdn("recv", TID, hop=1, kind="DiscoveryRequest")
    clock.now = 0.02
    client("discover_done", TID, success=True)
    obs.registry.counter("discovery.completed").inc()
    obs.registry.gauge("overload.queue_depth").set(2)
    obs.registry.histogram("discovery.total_time").observe(0.02)
    return obs


class TestJsonSnapshot:
    def test_snapshot_is_json_serialisable(self):
        obs = _observed_world()
        json.dumps(telemetry_snapshot(obs))
        parsed = json.loads(json.dumps(telemetry_snapshot(obs)))
        assert parsed["version"] == 1
        assert set(parsed["rings"]) == {"client", "bdn"}
        assert parsed["rings"]["client"]["emitted"] == 3

    def test_roundtrip_through_json_rebuilds_the_timeline(self):
        obs = _observed_world()
        direct = assemble(obs, TID)
        snapshot = json.loads(json.dumps(telemetry_snapshot(obs)))
        rebuilt = assemble_from_snapshot(snapshot, TID)
        assert rebuilt.events == direct.events
        # seq survives serialisation, so causal order does too.
        assert [e.seq for e in rebuilt] == [e.seq for e in direct]
        assert [e.event for e in rebuilt] == ["phase", "request_sent", "recv", "discover_done"]

    def test_complete_request_ids_work_on_parsed_snapshot(self):
        obs = _observed_world()
        snapshot = json.loads(json.dumps(telemetry_snapshot(obs)))
        assert complete_request_ids(snapshot) == (TID,)

    def test_snapshot_records_ring_overflow(self):
        obs = Observability(ring_capacity=2)
        rec = emitter(obs, "n")
        for _ in range(5):
            rec("send", TID)
        snap = telemetry_snapshot(obs)
        assert snap["rings"]["n"]["dropped"] == 3
        assert snap["rings"]["n"]["emitted"] == 5
        assert len(snap["rings"]["n"]["events"]) == 2


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("discovery.completed").inc(3)
        registry.gauge("overload.queue_depth").set(1.5)
        text = prometheus_text(registry)
        assert "# TYPE repro_discovery_completed counter" in text
        assert "repro_discovery_completed 3" in text
        assert "# TYPE repro_overload_queue_depth gauge" in text
        assert "repro_overload_queue_depth 1.5" in text
        assert text.endswith("\n")

    def test_histogram_exposition(self):
        registry = MetricsRegistry()
        h = registry.histogram("rtt")
        h.observe(0.05)
        h.observe(0.5)
        h.observe(50.0)  # above max bound: +Inf only
        text = prometheus_text(registry)
        assert 'repro_rtt_bucket{le="0.1"} 1' in text
        assert 'repro_rtt_bucket{le="1"} 2' in text
        assert 'repro_rtt_bucket{le="10"} 2' in text
        assert 'repro_rtt_bucket{le="+Inf"} 3' in text
        assert "repro_rtt_count 3" in text

    def test_names_flattened_to_prometheus_charset(self):
        registry = MetricsRegistry()
        registry.counter("obs.event.dup-suppressed").inc()
        text = prometheus_text(registry)
        assert "repro_obs_event_dup_suppressed 1" in text


class TestPrometheusLabels:
    """The ``le`` label of each histogram bucket, ``+Inf`` included."""

    def test_inconsistent_histogram_raises_instead_of_lying(self):
        registry = MetricsRegistry()
        h = registry.histogram("rtt")
        h.observe(0.05)
        h.count = 0  # corrupt: finite bucket now exceeds the total count
        with pytest.raises(ValueError, match="inconsistent"):
            prometheus_text(registry)

    def test_inf_bucket_equals_count_with_overflow(self):
        registry = MetricsRegistry()
        h = registry.histogram("rtt")
        h.observe(50.0)  # lands only in +Inf
        text = prometheus_text(registry)
        assert 'repro_rtt_bucket{le="10"} 0' in text
        assert 'repro_rtt_bucket{le="+Inf"} 1' in text
