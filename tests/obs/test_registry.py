"""MetricsRegistry semantics: bucket edges, strict reads, kind checks."""

from __future__ import annotations

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry


class TestHistogramBucketEdges:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        # Prometheus `le` semantics: bounds are inclusive upper edges.
        h = Histogram("h")
        h.observe(DEFAULT_BUCKETS[3])
        assert h.bucket_counts == [0, 0, 0, 1] + [0] * (len(DEFAULT_BUCKETS) - 4)
        assert h.cumulative()[2:5] == (0, 1, 1)

    def test_value_between_bounds_lands_in_upper_bucket(self):
        h = Histogram("h")
        h.observe((DEFAULT_BUCKETS[2] + DEFAULT_BUCKETS[3]) / 2)
        assert h.cumulative()[2:5] == (0, 1, 1)

    def test_value_above_max_counts_only_toward_inf(self):
        h = Histogram("h")
        h.observe(99.0)
        assert h.bucket_counts == [0] * len(DEFAULT_BUCKETS)
        assert h.count == 1
        assert h.sum == 99.0

    def test_value_below_first_bound_lands_in_first_bucket(self):
        h = Histogram("h")
        h.observe(0.0)
        assert h.bucket_counts == [1] + [0] * (len(DEFAULT_BUCKETS) - 1)

    def test_cumulative_is_monotone(self):
        h = Histogram("h")
        for v in (0.0001, 0.003, 0.003, 0.7, 42.0):
            h.observe(v)
        cumulative = h.cumulative()
        assert list(cumulative) == sorted(cumulative)
        assert cumulative[-1] == 4  # the 42.0 is +Inf-only
        assert h.count == 5

    def test_bounds_fixed_at_creation_for_determinism(self):
        # Identical observations produce identical snapshots; bounds
        # never adapt to data.
        a, b = Histogram("h"), Histogram("h")
        for v in (0.002, 1.7, 0.3):
            a.observe(v)
            b.observe(v)
        assert a.read() == b.read()
        assert a.bounds == DEFAULT_BUCKETS


class TestCounterAndGauge:
    def test_counter_monotone(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.read() == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("g")
        g.set(7)
        g.set(2.5)
        assert g.read() == 2.5


class TestRegistryStrictness:
    def test_read_unknown_name_raises_keyerror(self):
        registry = MetricsRegistry()
        registry.counter("discovery.completed").inc()
        with pytest.raises(KeyError, match="discovery.complted"):
            registry.read("discovery.complted")  # typo never reads 0

    def test_keyerror_lists_registered_names(self):
        registry = MetricsRegistry()
        registry.gauge("a").set(1)
        with pytest.raises(KeyError, match="registered"):
            registry.read("b")

    def test_kind_mismatch_raises_typeerror(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_create_or_get_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_snapshot_sorted_and_json_friendly(self):
        import json

        registry = MetricsRegistry()
        registry.gauge("b.gauge").set(1.5)
        registry.counter("a.counter").inc()
        registry.histogram("c.hist").observe(0.01)
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)  # must serialise as-is
        assert snap["a.counter"] == {"kind": "counter", "value": 1}
