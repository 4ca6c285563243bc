"""Smoke tests for roundbench (outside tier-1).

    PYTHONPATH=src python -m pytest benchmarks/roundbench

One module-scoped smoke run (``run --seconds 1``: all five workloads,
each untraced and traced) feeds most assertions.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.roundbench import catalog, cli, compare, runner
from benchmarks.roundbench.calib import SegmentClock
from benchmarks.roundbench.workloads import SegmentOut, SimStar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMOKE_SECONDS = 1.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("roundbench") / "results.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.roundbench", "run", "--seed", "7",
         "--seconds", str(SMOKE_SECONDS), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "PATH": "/usr/bin:/bin"},
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    printed = done.stdout
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert re.search(rf"^\s+{re.escape(metric.name)}\s+\S+ {re.escape(metric.unit)}$",
                         printed, re.M), f"{metric.name} not printed with its unit"
    return json.loads(out.read_text())["runs"]


def _records(runs: list[dict], trace: int) -> dict[str, dict]:
    return {r["workload"]: r for r in runs if r["trace"] == trace}


def test_calibrator_imports_nothing_from_repro():
    probe = (
        "import sys; import benchmarks.roundbench.calib; "
        "bad = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')]; "
        "assert not bad, bad"
    )
    subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, check=True, timeout=60,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}", "PATH": "/usr/bin:/bin"},
    )


def test_benchmark_json_is_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == catalog.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert 2 <= len(declared["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert 1 <= len(declared["end_to_end"]) <= 16 and 1 <= len(declared["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    for metric, entry in zip(catalog.END_TO_END, declared["end_to_end"]):
        assert entry["bound"] >= max(metric.sim, metric.live), metric.name


def test_every_workload_reports_every_end_to_end_metric(smoke):
    untraced = _records(smoke, 0)
    assert set(untraced) == set(catalog.WORKLOADS)
    for workload, record in untraced.items():
        assert record["correct"], (workload, record["violations"])
        line = json.loads(cli._contract_line(record, catalog.END_TO_END))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == {m.name for m in catalog.END_TO_END}
        for metric in catalog.END_TO_END:
            entry = line["metrics"][metric.name]
            assert entry["unit"] == metric.unit and entry["value"] > 0, (workload, metric.name)
        assert record["raw"]["segments"] >= 8


def test_traced_pass_accounts_for_its_wall_time(smoke):
    traced = _records(smoke, 1)
    assert set(traced) == set(catalog.WORKLOADS)
    for workload, record in traced.items():
        assert record["correct"], (workload, record["violations"])  # includes "spans nest"
        metrics = record["metrics"]
        line = json.loads(cli._contract_line(record, catalog.PER_LAYER))
        assert set(line["metrics"]) == {m.name for m in catalog.PER_LAYER}
        assert record["raw"]["spans"] > 0 and record["raw"]["span_uuids"] > 0
        assert record["raw"]["negative_self_spans"] == 0
        layers = [m.name[: -len(".share")] for m in catalog.TRACED if m.name.endswith(".share")]
        assert all(metrics[f"{layer}.self_s"] >= 0 for layer in layers)
        total = sum(metrics[f"{layer}.share"] for layer in layers)
        assert abs(total - 1.0) <= metrics["trace.attribution_error"] + 1e-6
        assert metrics["bench.loadgen.share"] >= 0
    # Each layer shows where it should and not where it is bypassed.
    share = {w: r["metrics"] for w, r in traced.items()}
    assert share["live_loopback"]["runtime.aio.share"] > 0
    assert share["sim_star"]["runtime.aio.share"] == 0
    assert share["live_loopback"]["simnet.network.share"] == 0
    assert share["sim_replicated"]["discovery.replication.share"] > 0
    assert share["sim_star"]["discovery.replication.share"] == 0
    assert share["sim_flash_crowd"]["discovery.requester.share"] == 0
    assert share["sim_registry_churn"]["discovery.sharding.share"] > 3 * share["sim_star"][
        "discovery.sharding.share"
    ]


def test_sim_results_are_exact_for_a_seed(smoke):
    """A second untraced run of one sim workload repeats the virtual
    latencies and counters bit for bit."""
    first = _records(smoke, 0)["sim_registry_churn"]
    again = cli._spawn(
        ["--workload", "sim_registry_churn", "--seed", "7", "--seconds", str(SMOKE_SECONDS),
         "--trace", "0"]
    )
    assert again["exit_code"] == 0 and again["correct"]
    for name in ("sim_latency_p50_ms", "sim_latency_p99_ms"):
        assert again["metrics"][name]["value"] == first["metrics"][name]


def test_failures_over_the_ceiling_are_a_violation():
    workload = SimStar(seed=1, scale=0.05)  # 0.1 % per-hop loss: ceiling of 1 in 1000
    assert not runner._violations(workload, SegmentOut(attempted=2000, completed=1998, failed=2))
    assert runner._violations(workload, SegmentOut(attempted=2000, completed=1997, failed=3))


def test_world_builds_are_outside_the_timed_segment(monkeypatch):
    workload = SimStar(seed=1, scale=0.05)
    workload.prepare(0)
    monkeypatch.setattr(SimStar, "_build", lambda self, world: pytest.fail("built inside segment"))
    out = workload.segment(0)
    assert out.completed == workload.worlds * SimStar.PER_WORLD and out.events > 0


def test_calibration_steadies_a_fixed_workload():
    """Two back-to-back measurements of the same pure-Python work agree
    within the throughput bound once normalised."""
    bound = next(m.sim for m in catalog.END_TO_END if m.name == "discoveries_per_s")

    def work() -> dict[str, float]:
        return {"ops": sum(len(str(i)) for i in range(20_000))}

    medians = []
    for _ in range(2):
        clock = SegmentClock()
        for _ in range(12):
            clock.measure(work)
        rates = sorted(s.rate("ops") for s in clock.segments)
        medians.append(rates[len(rates) // 2])
    assert abs(medians[1] - medians[0]) / medians[0] <= bound


def _set(values: dict[str, list[float]], workload: str = "sim_star") -> list[dict]:
    runs = max(len(v) for v in values.values())
    return [
        {"workload": workload, "seed": i, "trace": 0,
         "metrics": {name: series[i] for name, series in values.items()}}
        for i in range(runs)
    ]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    rows = compare.compare_sets(
        _set({"discoveries_per_s": steady, "cpu_ms_per_discovery": steady,
              "events_per_s": steady, "peak_rss_mb": [50, 90, 20, 70, 40]}),
        _set({"discoveries_per_s": [v * 0.7 for v in steady],
              "cpu_ms_per_discovery": [v * 1.01 for v in steady],
              "events_per_s": [v * 1.5 for v in steady], "peak_rss_mb": [50, 90, 20, 70, 40]}),
    )
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {
        "discoveries_per_s": "worse",  # higher is better and it fell 30 %
        "cpu_ms_per_discovery": "same",
        "events_per_s": "better",  # every run of B beats every run of A
        "peak_rss_mb": "unresolved",  # the sets' own spread exceeds the bound
    }
    worse = next(row for row in rows if row["metric"] == "discoveries_per_s")
    assert worse["worse_by"] == pytest.approx(0.3)
    assert "unresolved: 1" in compare.render(rows, [])
    # The bound is the runtime's: 10 % on a simulated workload, 15 % on live.
    fell_12 = {"discoveries_per_s": [v * 0.88 for v in steady]}
    for workload, verdict in (("sim_star", "worse"), ("live_loopback", "same")):
        (row,) = compare.compare_sets(
            _set({"discoveries_per_s": steady}, workload), _set(fell_12, workload)
        )
        assert row["verdict"] == verdict, workload
    exact = compare.exact_mismatches(
        _set({"sim_latency_p50_ms": [1.0, 2.0]}), _set({"sim_latency_p50_ms": [1.0, 2.5]})
    )
    assert len(exact) == 1 and "seed 1" in exact[0]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "roundbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/roundbench/run.py", "--workload", "sim_star", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
