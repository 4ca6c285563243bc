"""Tests for ASCII report rendering."""

from __future__ import annotations

from repro.experiments.report import (
    comparison_table,
    metric_table,
    percentage_table,
)
from repro.experiments.stats import summarize


class TestMetricTable:
    def test_contains_paper_rows(self):
        stats = summarize([100.0, 200.0, 300.0])
        out = metric_table(stats, "Figure 3")
        assert "Figure 3" in out
        for label in ("Mean", "deviation", "Maximum", "Minimum", "Error"):
            assert label in out
        assert "Time (MilliSec)" in out

    def test_values_formatted(self):
        stats = summarize([100.0, 200.0])
        out = metric_table(stats, "t")
        assert "150.00" in out  # mean
        assert "200.00" in out  # maximum


class TestPercentageTable:
    def test_sorted_descending(self):
        out = percentage_table({"small": 10.0, "big": 80.0, "mid": 10.0}, "Figure 2")
        lines = out.splitlines()
        assert lines[0] == "Figure 2"
        assert lines[2].startswith("big")

    def test_percent_signs(self):
        out = percentage_table({"a": 99.9}, "t")
        assert "99.9%" in out


class TestComparisonTable:
    def test_rows_and_columns(self):
        out = comparison_table(
            rows=[("unconnected", {"mean": 365.0}), ("star", {"mean": 224.0})],
            columns=["mean", "p95"],
            title="Topologies",
        )
        assert "Topologies" in out
        assert "unconnected" in out
        assert "365.00" in out
        assert "-" in out  # missing p95 cell
