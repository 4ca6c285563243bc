"""Tests for usage metrics and the paper's weight formula."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import OverloadStats, UsageMetrics, WeightConfig, broker_weight

MB = 1024 * 1024


def metrics(free=400, total=512, links=1, conns=0, cpu=0.05) -> UsageMetrics:
    return UsageMetrics(
        free_memory=free * MB,
        total_memory=total * MB,
        num_links=links,
        num_connections=conns,
        cpu_load=cpu,
    )


class TestUsageMetricsValidation:
    def test_valid_metrics_accepted(self):
        m = metrics()
        assert m.memory_fraction_free == pytest.approx(400 / 512)

    def test_zero_total_memory_rejected(self):
        with pytest.raises(ValueError):
            UsageMetrics(0, 0, 0, 0)

    def test_free_above_total_rejected(self):
        with pytest.raises(ValueError):
            UsageMetrics(2 * MB, MB, 0, 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            UsageMetrics(MB, MB, -1, 0)
        with pytest.raises(ValueError):
            UsageMetrics(MB, MB, 0, -1)

    def test_cpu_load_bounds(self):
        with pytest.raises(ValueError):
            UsageMetrics(MB, MB, 0, 0, cpu_load=1.5)
        with pytest.raises(ValueError):
            UsageMetrics(MB, MB, 0, 0, cpu_load=-0.1)

    def test_fully_free_memory_allowed(self):
        m = UsageMetrics(MB, MB, 0, 0)
        assert m.memory_fraction_free == 1.0

    def test_queue_depth_defaults_to_zero(self):
        assert metrics().queue_depth == 0

    def test_negative_queue_depth_rejected(self):
        with pytest.raises(ValueError):
            UsageMetrics(MB, MB, 0, 0, queue_depth=-1)


class TestWeightConfigValidation:
    def test_defaults_valid(self):
        WeightConfig()

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            WeightConfig(num_links=-1.0)
        with pytest.raises(ValueError):
            WeightConfig(delay_penalty_per_ms=-0.5)


class TestBrokerWeightFormula:
    """Direct transcriptions of the paper's section 9 snippet semantics."""

    def test_more_free_memory_scores_higher(self):
        assert broker_weight(metrics(free=500)) > broker_weight(metrics(free=100))

    def test_more_total_memory_scores_higher(self):
        # Same fraction free, bigger heap.
        small = UsageMetrics(256 * MB, 512 * MB, 1, 0)
        large = UsageMetrics(512 * MB, 1024 * MB, 1, 0)
        assert broker_weight(large) > broker_weight(small)

    def test_more_links_scores_lower(self):
        assert broker_weight(metrics(links=0)) > broker_weight(metrics(links=8))

    def test_more_connections_scores_lower(self):
        assert broker_weight(metrics(conns=0)) > broker_weight(metrics(conns=50))

    def test_higher_cpu_scores_lower(self):
        assert broker_weight(metrics(cpu=0.0)) > broker_weight(metrics(cpu=0.9))

    def test_exact_formula_value(self):
        cfg = WeightConfig(
            free_to_total_memory=10.0,
            total_memory_mb=0.01,
            num_links=2.0,
            num_connections=0.5,
            cpu_load=5.0,
        )
        m = metrics(free=256, total=512, links=3, conns=4, cpu=0.2)
        expected = (256 / 512) * 10.0 + 512 * 0.01 - 3 * 2.0 - 4 * 0.5 - 0.2 * 5.0
        assert broker_weight(m, cfg) == pytest.approx(expected)

    def test_zero_config_gives_zero_weight(self):
        cfg = WeightConfig(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert broker_weight(metrics(), cfg) == 0.0

    def test_fresh_broker_beats_loaded_cluster_peer(self):
        """Paper advantage 3: 'a newly added broker within a cluster
        would be preferentially utilized'."""
        fresh = metrics(free=480, links=1, conns=0, cpu=0.02)
        loaded = metrics(free=200, links=6, conns=80, cpu=0.6)
        assert broker_weight(fresh) > broker_weight(loaded)

    def test_deeper_queue_scores_lower(self):
        shallow = UsageMetrics(256 * MB, 512 * MB, 1, 0, queue_depth=0)
        deep = UsageMetrics(256 * MB, 512 * MB, 1, 0, queue_depth=30)
        assert broker_weight(shallow) > broker_weight(deep)

    def test_queue_depth_factor_configurable(self):
        m = UsageMetrics(256 * MB, 512 * MB, 1, 0, queue_depth=10)
        heavy = WeightConfig(queue_depth=5.0)
        light = WeightConfig(queue_depth=0.0)
        assert broker_weight(m, light) - broker_weight(m, heavy) == pytest.approx(50.0)


class _QueueStub:
    def __init__(self, depth, max_depth, overflows, served):
        self.depth = depth
        self.max_depth = max_depth
        self.overflows = overflows
        self.served = served


class _NodeStub:
    def __init__(self, ingress=None, requests_shed=0):
        self.ingress = ingress
        self.requests_shed = requests_shed


class _ClientStub:
    def __init__(self, busy=0, trips=0, denied=0):
        self.busy_received = busy
        self.breaker_trips = trips
        self.retries_denied = denied


class TestOverloadStats:
    def test_gather_sums_across_nodes(self):
        stats = OverloadStats.gather(
            bdns=[
                _NodeStub(_QueueStub(2, 9, 3, 40), requests_shed=5),
                _NodeStub(None, requests_shed=1),
            ],
            brokers=[_NodeStub(_QueueStub(1, 12, 0, 7))],
            responders=[type("R", (), {"responses_suppressed": 4})()],
            clients=[_ClientStub(busy=6, trips=2, denied=3)],
        )
        assert stats.queue_depth == 3
        assert stats.queue_peak == 12
        assert stats.queue_overflows == 3
        assert stats.queue_served == 47
        assert stats.requests_shed == 6
        assert stats.responses_suppressed == 4
        assert stats.busy_received == 6
        assert stats.breaker_trips == 2
        assert stats.retries_denied == 3

    def test_gather_rejects_nodes_missing_counters(self):
        # The old duck-typed gather read 0 for any missing attribute; a
        # node without the expected counters must now fail loudly.
        with pytest.raises(AttributeError):
            OverloadStats.gather(bdns=[object()])
        with pytest.raises(AttributeError):
            OverloadStats.gather(clients=[object()])

    def test_rows_cover_every_field(self):
        stats = OverloadStats(queue_depth=1, breaker_trips=2)
        rows = dict(stats.rows())
        assert rows["queue depth (now)"] == 1
        assert rows["breaker trips"] == 2
        assert len(rows) == 9


@given(
    free_frac=st.floats(min_value=0.0, max_value=1.0),
    links=st.integers(min_value=0, max_value=100),
    conns=st.integers(min_value=0, max_value=1000),
    cpu=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_weight_monotone_in_each_penalty(free_frac, links, conns, cpu):
    total = 512 * MB
    m = UsageMetrics(int(free_frac * total), total, links, conns, cpu)
    worse_links = UsageMetrics(int(free_frac * total), total, links + 1, conns, cpu)
    worse_conns = UsageMetrics(int(free_frac * total), total, links, conns + 1, cpu)
    assert broker_weight(worse_links) < broker_weight(m)
    assert broker_weight(worse_conns) < broker_weight(m)
