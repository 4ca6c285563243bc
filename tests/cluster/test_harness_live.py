"""Live multi-process harness: SIGTERM drain, SIGKILL crash, collection.

These tests spawn real worker processes over loopback sockets, so they
are the slowest in the suite; one small cluster run is shared by a
module fixture and every assertion reads its collected wreckage.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cluster.coordinator import ClusterHarness
from repro.cluster.report import check_invariants
from repro.cluster.spec import DRAIN_DEADLINE, ClusterSpec


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One mini cluster run: load, graceful drain of b0, crash of b1."""
    spec = ClusterSpec(
        n_bdns=1,
        n_brokers=2,
        n_clients=1,
        rounds=3,
        mean_gap=0.05,
        slo_window=2.0,
        profile_rate=50.0,
    )
    workdir = str(tmp_path_factory.mktemp("cluster"))
    harness = ClusterHarness(spec, workdir)
    harness.start()
    time.sleep(2.5)  # two heartbeat intervals: both brokers registered
    harness.start_load()
    done = harness.wait_load_done(timeout=30)

    # Satellite: SIGTERM is a graceful drain -- the worker finishes
    # in-flight responses, withdraws its registration, writes its exit
    # report, and exits 0 within the deadline (drain() asserts the code).
    drain_started = time.monotonic()
    code = harness.injector.drain("broker:0")
    drain_elapsed = time.monotonic() - drain_started

    # SIGKILL is the crash path: no report is ever written.
    harness.injector.crash("broker:1")

    codes = harness.shutdown()
    reports, missing = harness.collect()
    return {
        "spec": spec,
        "harness": harness,
        "done": done,
        "drain_code": code,
        "drain_elapsed": drain_elapsed,
        "codes": codes,
        "reports": {r["label"]: r for r in reports},
        "missing": missing,
        "live": harness.live.summary(),
    }


class TestGracefulDrain:
    def test_exit_zero_within_deadline(self, run):
        assert run["drain_code"] == 0
        assert run["drain_elapsed"] < DRAIN_DEADLINE + 5.0

    def test_report_written_with_no_pending_responses(self, run):
        broker = run["reports"]["broker:0#0"]["broker"]
        assert broker["name"] == "b0"
        assert broker["pending_at_exit"] == 0

    def test_registration_withdrawn_on_the_way_out(self, run):
        # One lease-expiring withdrawal advertisement per BDN endpoint.
        broker = run["reports"]["broker:0#0"]["broker"]
        assert broker["withdrawals_sent"] == run["spec"].n_bdns

    def test_report_is_valid_json_on_disk(self, run):
        path = run["harness"].report_path("broker:0", 0)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["role"] == "broker:0"


class TestCrash:
    def test_sigkilled_worker_loses_its_report(self, run):
        assert run["missing"] == ["broker:1#0"]
        assert "broker:1#0" not in run["reports"]


class TestRun:
    def test_load_completed_without_failures(self, run):
        assert run["done"]["rounds"] == run["spec"].rounds
        assert run["done"]["failures"] == 0

    def test_surviving_workers_exited_cleanly(self, run):
        for role in ("bdn:0", "load"):
            assert run["codes"][role] == 0

    def test_invariants_hold_on_collected_reports(self, run):
        reports = list(run["reports"].values())
        assert check_invariants(run["spec"], reports) == []

    def test_no_transport_errors_in_any_report(self, run):
        for label, report in run["reports"].items():
            assert report["errors"] == [], f"{label}: {report['errors'][:3]}"
            assert report["errors_dropped"] == 0


class TestLiveTelemetryPlane:
    def test_every_surviving_worker_streamed_frames(self, run):
        for label, report in run["reports"].items():
            assert report["telemetry_frames_sent"] >= 1, label

    def test_coordinator_folded_every_reporter(self, run):
        # Every worker that wrote a report reached the coordinator's
        # rolling view: its frames were received and folded.
        assert set(run["reports"]) <= set(run["live"]["processes"])

    def test_rolling_view_saw_every_process(self, run):
        live = run["live"]
        # broker:1 was SIGKILLed but streamed before dying; every spawned
        # incarnation should appear in the rolling view.
        assert set(live["processes"]) >= {"bdn:0#0", "broker:0#0", "load#0"}
        assert live["frames_folded"] >= len(live["processes"])

    def test_slo_monitor_evaluated_and_found_nothing(self, run):
        live = run["live"]
        assert live["windows_evaluated"] >= 1  # flush closes the partial window
        assert live["violations"] == []
        assert len(live["trend"]) == live["windows_evaluated"]

    def test_load_generator_profile_in_exit_report(self, run):
        profile = run["reports"]["load#0"].get("profile")
        assert profile is not None
        assert profile["samples"] > 0
        assert profile["collapsed"], "collapsed flamegraph stacks missing"
        # Every collapsed line is `frames... count` with a positive count.
        for line in profile["collapsed"]:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
        assert profile["attribution"], "per-module CPU attribution missing"

    def test_unprofiled_roles_carry_no_profile(self, run):
        assert "profile" not in run["reports"]["bdn:0#0"]
        assert "profile" not in run["reports"]["broker:0#0"]
