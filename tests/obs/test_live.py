"""The streaming telemetry plane: rolling view, window deltas, dashboard."""

from __future__ import annotations

from repro.obs.live import (
    LiveTelemetry,
    RollingClusterView,
    histogram_delta,
    quantile_from_buckets,
    render_top,
)
from repro.cluster.spec import ClusterSpec
from repro.obs.slo import SloMonitor


def counter(value: int) -> dict:
    return {"kind": "counter", "value": value}


def hist(buckets: list[int], count: int, total: float) -> dict:
    return {
        "kind": "histogram",
        "value": {
            "bounds": [0.1, 1.0],
            "buckets": buckets,
            "count": count,
            "sum": total,
        },
    }


class TestHistogramDelta:
    def test_window_increment(self):
        base = hist([1, 2], 3, 0.5)["value"]
        current = hist([2, 5], 7, 1.5)["value"]
        delta = histogram_delta(current, base)
        assert delta == {
            "bounds": [0.1, 1.0], "buckets": [1, 3], "count": 4, "sum": 1.0
        }

    def test_restart_yields_full_current_reading(self):
        base = hist([5, 9], 10, 3.0)["value"]
        current = hist([1, 1], 2, 0.2)["value"]  # count went down: restart
        assert histogram_delta(current, base) == current

    def test_no_base_yields_current(self):
        current = hist([1, 1], 2, 0.2)["value"]
        assert histogram_delta(current, None) == current
        assert histogram_delta(None, current) is None


class TestQuantileFromBuckets:
    def test_smallest_covering_bound(self):
        # 10 observations: 9 under 0.1s, 1 between 0.1 and 1.0.
        assert quantile_from_buckets([0.1, 1.0], [9, 10], 10, 0.50) == 0.1
        assert quantile_from_buckets([0.1, 1.0], [9, 10], 10, 0.99) == 1.0

    def test_overflow_bucket_reports_last_bound(self):
        # All observations above every bound: conservative last bound.
        assert quantile_from_buckets([0.1, 1.0], [0, 0], 5, 0.99) == 1.0

    def test_empty_histogram(self):
        assert quantile_from_buckets([0.1], [0], 0, 0.99) == 0.0


def frame(role="load", incarnation=0, metrics=None, stats=None, **extra):
    out = {
        "type": "telemetry",
        "role": role,
        "incarnation": incarnation,
        "wall_offset": 0.0,
        "metrics": metrics or {},
        "stats": stats or {},
    }
    out.update(extra)
    return out


class TestRollingClusterView:
    def test_folding_keys_processes_by_incarnation(self):
        view = RollingClusterView()
        view.fold(frame(role="bdn:0", incarnation=0))
        view.fold(frame(role="bdn:0", incarnation=1))
        assert sorted(view.processes) == ["bdn:0#0", "bdn:0#1"]
        assert view.frames_folded == 2

    def test_a_frame_replaces_the_process_metrics(self):
        view = RollingClusterView()
        view.fold(frame(metrics={"a": counter(1), "b": counter(2)}))
        (process,) = view.processes.values()
        view.fold(frame(metrics={"a": counter(3)}))
        assert process.metrics == {"a": counter(3)}

    def test_a_frame_replaces_the_process_record(self):
        # A key the last frame dropped is gone: a BDN that lost its queue
        # keys must read as no evidence, not as its last queue reading.
        view = RollingClusterView()
        view.fold(frame(role="bdn:0", stats={"name": "d0", "queue_depth": 4}))
        (process,) = view.processes.values()
        view.fold(frame(role="bdn:0", stats={"name": "d0"}))
        assert process.stats == {"name": "d0"}

    def test_window_counter_rates(self):
        view = RollingClusterView()
        view.fold(frame(metrics={"discovery.completed": counter(4)}))
        view.close_window(2.0)
        view.fold(frame(metrics={"discovery.completed": counter(10)}))
        view.close_window(2.0)
        (row,) = view.top_rows()
        assert row["rounds_per_s"] == 3.0  # (10 - 4) / 2s

    def test_window_histogram_quantiles(self):
        view = RollingClusterView()
        view.fold(
            frame(metrics={"discovery.total_time": hist([9, 10], 10, 1.0)})
        )
        view.close_window(1.0)
        (row,) = view.top_rows()
        assert row["p50"] == 0.1
        assert row["p99"] == 1.0

    def test_leadership_intervals_rebased_by_wall_offset(self):
        view = RollingClusterView()
        view.fold(
            frame(
                role="bdn:0",
                stats={"name": "d0", "intervals": [[1, 0.0, 2.0]]},
                wall_offset=100.0,
            )
        )
        view.fold(
            frame(
                role="bdn:1",
                stats={"name": "d1", "intervals": [[2, 0.5, 3.0]]},
                wall_offset=103.0,
            )
        )
        assert view.leadership_intervals() == [
            ("d0", 1.0, 100.0, 102.0),
            ("d1", 2.0, 103.5, 106.0),
        ]

    def test_render_top_mentions_every_process(self):
        view = RollingClusterView()
        view.fold(frame(role="load", stats={"breaker_states": {"c0:d0": "open"}}))
        view.close_window(1.0)
        text = render_top(view, SloMonitor(ClusterSpec().slo_config()))
        assert "load#0" in text
        assert "1 open" in text


def live_telemetry() -> LiveTelemetry:
    return LiveTelemetry(SloMonitor(ClusterSpec().slo_config()))


class TestLiveTelemetry:
    def test_on_frame_folds_and_replies_nothing(self):
        live = live_telemetry()
        assert live.on_frame(frame()) is None
        assert live.view.frames_folded == 1

    def test_stop_without_start_is_safe_and_idempotent(self):
        live = live_telemetry()
        live.stop()
        live.stop()
        assert live.violations == []
        assert live.summary()["windows_evaluated"] == 0

    def test_summary_shape(self):
        live = live_telemetry()
        live.on_frame(frame())
        summary = live.summary()
        assert summary["frames_folded"] == 1
        assert summary["processes"] == ["load#0"]
