"""Experiment harness: scenarios, statistics, and reporting.

This package turns the building blocks into the paper's evaluation:

* :mod:`repro.experiments.stats` -- the paper's methodology ("carried
  out 120 times and the first 100 results were selected after removing
  outliers") and its metric table (Mean / deviation / Maximum /
  Minimum / Error).
* :mod:`repro.experiments.scenarios` -- one declarative spec per
  evaluation setup: unconnected / star / linear topologies over the
  Table 1 WAN, the multicast-only run, plus knobs for every ablation.
* :mod:`repro.experiments.harness` -- drives a scenario's simulator
  through repeated discoveries and collects outcomes.
* :mod:`repro.experiments.report` -- renders the same tables/figures
  the paper prints, as ASCII.
"""

from repro.experiments.stats import (
    SummaryStats,
    summarize,
    paper_sample,
    remove_outliers_iqr,
)
from repro.experiments.scenarios import ScenarioSpec, DiscoveryScenario
from repro.experiments.harness import run_discovery_once, repeat_discovery
from repro.experiments.report import metric_table, percentage_table, comparison_table

__all__ = [
    "SummaryStats",
    "summarize",
    "paper_sample",
    "remove_outliers_iqr",
    "ScenarioSpec",
    "DiscoveryScenario",
    "run_discovery_once",
    "repeat_discovery",
    "metric_table",
    "percentage_table",
    "comparison_table",
]
