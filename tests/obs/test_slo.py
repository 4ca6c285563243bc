"""The SLO monitor: window timing, hard invariants, burn-rate budget."""

from __future__ import annotations

import pytest

from repro.cluster.spec import QUEUE_CAPACITY, ClusterSpec
from repro.core.invariants import QueueStats, queue_record
from repro.obs.live import RollingClusterView
from repro.obs.slo import SloMonitor


def counter(value: int) -> dict:
    return {"kind": "counter", "value": value}


def latency_hist(slow: int, fast: int) -> dict:
    """A discovery.total_time histogram: `fast` under 0.1s, `slow` over 5s
    (the spec's p99 bound is 3s)."""
    return {
        "kind": "histogram",
        "value": {
            "bounds": [0.1, 5.0],
            "buckets": [fast, fast],
            "count": fast + slow,
            "sum": fast * 0.05 + slow * 9.0,
        },
    }


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_monitor() -> tuple[SloMonitor, RollingClusterView, FakeClock]:
    """A monitor over the spec's 5 s windows, 3 s p99 bound and 25 % budget."""
    clock = FakeClock()
    monitor = SloMonitor(ClusterSpec().slo_config(), clock=clock)
    monitor.start()
    return monitor, RollingClusterView(), clock


#: A BDN record's queue keys at rest; a BDN record without them is a
#: ``no_evidence`` violation, so every BDN fixture starts from these.
QUIET_QUEUE = queue_record(QueueStats(QUEUE_CAPACITY, 0, 0, 0))


def fold(view, role="load", incarnation=0, metrics=None, stats=None):
    view.fold(
        {
            "role": role,
            "incarnation": incarnation,
            "wall_offset": 0.0,
            "metrics": metrics or {},
            "stats": stats or {},
        }
    )


class TestConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            ClusterSpec(slo_window=0.0).slo_config()  # --slo-window is user input


class TestWindowTiming:
    def test_no_evaluation_before_the_window_closes(self):
        monitor, view, clock = make_monitor()
        clock.now = 4.9
        assert monitor.maybe_evaluate(view) == []
        assert monitor.windows_evaluated == 0

    def test_violation_detected_within_one_window(self):
        monitor, view, clock = make_monitor()
        clock.now = 2.0
        fold(view, metrics={"discovery.failed": counter(1)})
        clock.now = 5.0  # first window closes
        violations = monitor.maybe_evaluate(view)
        assert [v.invariant for v in violations] == ["zero_failed_discoveries"]
        assert violations[0].window == 0
        assert violations[0].detected_at == 5.0  # not at collect time

    def test_catchup_closes_every_elapsed_window(self):
        monitor, view, clock = make_monitor()
        clock.now = 17.0
        monitor.maybe_evaluate(view)
        assert monitor.windows_evaluated == 3

    def test_failure_counted_once_not_every_window(self):
        monitor, view, clock = make_monitor()
        fold(view, metrics={"discovery.failed": counter(1)})
        clock.now = 5.0
        assert len(monitor.maybe_evaluate(view)) == 1
        clock.now = 10.0  # same folded totals: the delta is zero
        assert monitor.maybe_evaluate(view) == []

    def test_drain_aborts_are_not_failures(self):
        # A run the requester gives up on mid-drain bumps the
        # discovery.failed metric, but the worker's recorded-round stats
        # exclude it -- and the stats win, matching the exit-report
        # invariant checker, so a clean run's final flushed window stays
        # clean.
        monitor, view, clock = make_monitor()
        fold(
            view,
            metrics={"discovery.failed": counter(2),
                     "discovery.completed": counter(40)},
            stats={"rounds": 40, "failures": 0},
        )
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []
        assert monitor.trend[0]["rounds"] == 40
        assert monitor.trend[0]["failures"] == 0

    def test_recorded_failures_still_violate(self):
        monitor, view, clock = make_monitor()
        fold(
            view,
            metrics={"discovery.failed": counter(1)},
            stats={"rounds": 10, "failures": 1},
        )
        clock.now = 5.0
        violations = monitor.maybe_evaluate(view)
        assert [v.invariant for v in violations] == ["zero_failed_discoveries"]

    def test_flush_guarantees_at_least_one_window(self):
        monitor, view, clock = make_monitor()
        clock.now = 1.0  # far short of the 5s window
        monitor.flush(view)
        assert monitor.windows_evaluated == 1
        assert len(monitor.trend) == 1


class TestHardInvariants:
    def test_queue_capacity_breach_names_the_process(self):
        monitor, view, clock = make_monitor()
        fold(view, role="bdn:0", stats={**QUIET_QUEUE, "queue_max_depth": QUEUE_CAPACITY + 1})
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "queue_capacity"
        assert violation.process == "bdn:0#0"
        assert str(QUEUE_CAPACITY + 1) in violation.detail
        clock.now = 10.0
        assert monitor.maybe_evaluate(view) == []  # a lifetime peak: said once

    def test_queue_overflow_is_a_violation_even_under_capacity(self):
        # The queue is bounded, so overload with admission control off
        # shows up as overflows, not as depth > capacity.
        monitor, view, clock = make_monitor()
        fold(view, role="bdn:0", stats={**QUIET_QUEUE, "queue_overflows": 2})
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "queue_overflow"

    def test_stale_target_fires_in_the_window_where_it_happens(self):
        monitor, view, clock = make_monitor()
        fold(view, role="bdn:0", stats={**QUIET_QUEUE, "stale_targets": 0})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []
        fold(view, role="bdn:0", stats={**QUIET_QUEUE, "stale_targets": 1})
        clock.now = 10.0
        (violation,) = monitor.maybe_evaluate(view)
        assert (violation.invariant, violation.process) == ("stale_targets", "bdn:0#0")
        assert violation.window == 1
        clock.now = 15.0  # same folded total: the delta is zero
        assert monitor.maybe_evaluate(view) == []

    def test_caught_handler_error_fires_in_the_window_where_it_happens(self):
        # The worker's record counts its runtime's caught handler
        # failures; the window that sees the count grow breaks.
        monitor, view, clock = make_monitor()
        fold(view, role="broker:0", stats={"handler_errors": 0})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []
        fold(view, role="broker:0", stats={"handler_errors": 2})
        clock.now = 10.0
        (violation,) = monitor.maybe_evaluate(view)
        assert (violation.invariant, violation.process, violation.window) == (
            "handler_errors", "broker:0#0", 1
        )
        assert violation.detail == "2 handler error(s) caught by the runtime"
        clock.now = 15.0  # same folded total: the delta is zero
        assert monitor.maybe_evaluate(view) == []

    def test_bdn_frame_without_queue_stats_is_no_evidence_once(self):
        monitor, view, clock = make_monitor()
        fold(view, role="bdn:0", stats={"name": "d0"})
        fold(view, role="broker:0", stats={"name": "b0"})  # brokers own no queue
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert (violation.invariant, violation.process) == ("no_evidence", "bdn:0#0")
        clock.now = 10.0
        assert monitor.maybe_evaluate(view) == []

    def test_row_without_stats_is_evaluated_not_raised_on(self):
        # A process that has sent metrics but no stats yet: the window
        # must close (this runs on the ticker thread), not KeyError.
        class StatlessView(RollingClusterView):
            def close_window(self, duration):
                rows = super().close_window(duration)
                for row in rows:
                    del row["stats"]
                return rows

        monitor, _, clock = make_monitor()
        view = StatlessView()
        fold(view, metrics={"discovery.failed": counter(1)})
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "zero_failed_discoveries"
        assert monitor.windows_evaluated == 1

    def test_election_overlap_fires_once(self):
        monitor, view, clock = make_monitor()
        fold(view, role="bdn:0", stats={**QUIET_QUEUE, "name": "d0", "intervals": [[1, 0.0, 4.0]]})
        fold(view, role="bdn:1", stats={**QUIET_QUEUE, "name": "d1", "intervals": [[2, 1.0, 3.0]]})
        clock.now = 5.0
        (violation,) = monitor.maybe_evaluate(view)
        assert violation.invariant == "election_safety"
        clock.now = 10.0
        assert monitor.maybe_evaluate(view) == []  # deduped

    def test_adjacent_leadership_is_fine(self):
        monitor, view, clock = make_monitor()
        fold(view, role="bdn:0", stats={**QUIET_QUEUE, "name": "d0", "intervals": [[1, 0.0, 2.0]]})
        fold(view, role="bdn:1", stats={**QUIET_QUEUE, "name": "d1", "intervals": [[2, 2.0, 4.0]]})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []


class TestLatencyBudget:
    def test_single_breach_burns_budget_without_violating(self):
        monitor, view, clock = make_monitor()
        fold(view, metrics={"discovery.total_time": latency_hist(slow=5, fast=0)})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []  # burned, not failed
        assert monitor.breached_windows == 1
        assert monitor.budget_burned > 0

    def test_sustained_breach_exhausts_the_budget(self):
        monitor, view, clock = make_monitor()
        slow = 0
        violations = []
        for window in range(1, 9):
            slow += 5
            fold(
                view,
                metrics={"discovery.total_time": latency_hist(slow=slow, fast=0)},
            )
            clock.now = 5.0 * window
            violations += monitor.maybe_evaluate(view)
        assert [v.invariant for v in violations] == ["latency_budget"] * len(violations)
        assert violations  # exhausted within the run
        # All windows breached vs 25% allowed: the grace window delays
        # exhaustion past the very first breach, not much further.
        assert violations[0].window == 1

    def test_fast_windows_do_not_burn(self):
        monitor, view, clock = make_monitor()
        fold(view, metrics={"discovery.total_time": latency_hist(slow=0, fast=50)})
        clock.now = 5.0
        assert monitor.maybe_evaluate(view) == []
        assert monitor.breached_windows == 0
        assert monitor.budget_burned == 0.0


class TestTrend:
    def test_rows_are_json_shaped_and_cumulative(self):
        monitor, view, clock = make_monitor()
        fold(view, metrics={"discovery.completed": counter(3)})
        clock.now = 5.0
        monitor.maybe_evaluate(view)
        clock.now = 7.0
        monitor.flush(view)
        assert [row["window"] for row in monitor.trend] == [0, 1]
        first = monitor.trend[0]
        assert first["rounds"] == 3
        assert first["failures"] == 0
        assert first["violations"] == []
        summary = monitor.summary()
        assert summary["windows_evaluated"] == 2
        assert summary["trend"] == monitor.trend
