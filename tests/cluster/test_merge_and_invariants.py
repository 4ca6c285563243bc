"""Cross-process telemetry merge and the collect-side soak invariants."""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

from repro.cluster.report import (
    check_invariants,
    merge_leadership_intervals,
    summarize,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.worker import Worker
from repro.core.config import BDNConfig
from repro.discovery.chaos import _check_overload
from repro.obs.cluster import SEQ_STRIDE, merge_process_snapshots
from repro.obs.live import RollingClusterView
from repro.obs.slo import SloMonitor


def snapshot(events=(), metrics=None):
    return {
        "version": 1,
        "metrics": metrics or {},
        "rings": {
            node: {
                "capacity": 64,
                "dropped": 0,
                "emitted": len(rows),
                "events": [dict(row) for row in rows],
            }
            for node, rows in events
        },
    }


def event(time, seq, name="e"):
    return {"time": time, "seq": seq, "name": name, "node": "n", "attrs": {}}


class TestMergeSnapshots:
    def test_times_rebased_onto_earliest_origin(self):
        merged = merge_process_snapshots(
            [
                {"label": "a", "wall_offset": 100.0,
                 "snapshot": snapshot([("a", [event(1.0, 1)])])},
                {"label": "b", "wall_offset": 103.0,
                 "snapshot": snapshot([("b", [event(1.0, 1)])])},
            ]
        )
        assert merged["rings"]["a"]["events"][0]["time"] == 1.0
        assert merged["rings"]["b"]["events"][0]["time"] == 4.0

    def test_seqs_striped_per_part(self):
        merged = merge_process_snapshots(
            [
                {"label": "a", "wall_offset": 0.0,
                 "snapshot": snapshot([("a", [event(0.0, 7)])])},
                {"label": "b", "wall_offset": 0.0,
                 "snapshot": snapshot([("b", [event(0.0, 7)])])},
            ]
        )
        assert merged["rings"]["a"]["events"][0]["seq"] == 7
        assert merged["rings"]["b"]["events"][0]["seq"] == 7 + SEQ_STRIDE

    def test_ring_name_clash_gets_part_suffix(self):
        merged = merge_process_snapshots(
            [
                {"label": "d0#0", "wall_offset": 0.0,
                 "snapshot": snapshot([("d0", [event(0.0, 1)])])},
                {"label": "d0#1", "wall_offset": 5.0,
                 "snapshot": snapshot([("d0", [event(0.0, 1)])])},
            ]
        )
        assert sorted(merged["rings"]) == ["d0", "d0#1"]

    def test_missing_snapshot_listed_not_merged(self):
        merged = merge_process_snapshots(
            [
                {"label": "alive", "wall_offset": 1.0,
                 "snapshot": snapshot([("a", [event(0.0, 1)])])},
                {"label": "sigkilled", "wall_offset": 0.0, "snapshot": None},
            ]
        )
        manifest = {row["label"]: row for row in merged["parts"]}
        assert manifest["alive"]["merged"] is True
        assert manifest["sigkilled"]["merged"] is False
        assert list(merged["rings"]) == ["a"]

    def test_counters_add_gauges_last_win_histograms_sum(self):
        a = snapshot(metrics={
            "reqs": {"kind": "counter", "value": 3},
            "depth": {"kind": "gauge", "value": 5},
            "lat": {"kind": "histogram",
                    "value": {"bounds": [1.0], "buckets": [2, 3], "count": 3, "sum": 1.5}},
        })
        b = snapshot(metrics={
            "reqs": {"kind": "counter", "value": 4},
            "depth": {"kind": "gauge", "value": 1},
            "lat": {"kind": "histogram",
                    "value": {"bounds": [1.0], "buckets": [1, 1], "count": 1, "sum": 0.2}},
        })
        merged = merge_process_snapshots(
            [
                {"label": "a", "wall_offset": 0.0, "snapshot": a},
                {"label": "b", "wall_offset": 0.0, "snapshot": b},
            ]
        )
        assert merged["metrics"]["reqs"]["value"] == 7
        assert merged["metrics"]["depth"]["value"] == 1
        assert merged["metrics"]["lat"]["value"] == {
            "bounds": [1.0], "buckets": [3, 4], "count": 4, "sum": 1.7
        }
        # The merge must not have mutated part a's snapshot in place.
        assert a["metrics"]["lat"]["value"]["buckets"] == [2, 3]

    def test_kind_conflict_flagged_not_fabricated(self):
        merged = merge_process_snapshots(
            [
                {"label": "a", "wall_offset": 0.0,
                 "snapshot": snapshot(metrics={"m": {"kind": "counter", "value": 1}})},
                {"label": "b", "wall_offset": 0.0,
                 "snapshot": snapshot(metrics={"m": {"kind": "gauge", "value": 9}})},
            ]
        )
        assert merged["metrics"]["m"]["value"] == 1
        assert merged["metrics"]["m"]["merge_conflicts"] == 1

    def test_crash_respawn_sequence_sums_counters_across_incarnations(self):
        # bdn:0 crashed (SIGKILL: no snapshot), respawned as #1, crashed
        # again, respawned as #2.  The merged counter must sum every
        # incarnation that reported -- last-write-wins would erase the
        # pre-crash history.
        def incarnation(n, reqs, depth):
            return {
                "label": f"bdn:0#{n}",
                "wall_offset": float(n),
                "snapshot": snapshot(metrics={
                    "reqs": {"kind": "counter", "value": reqs},
                    "queue_depth": {"kind": "gauge", "value": depth},
                }),
            }

        merged = merge_process_snapshots(
            [
                incarnation(0, reqs=10, depth=4),
                {"label": "bdn:0#1", "wall_offset": 1.0, "snapshot": None},
                incarnation(2, reqs=7, depth=4),
                incarnation(3, reqs=5, depth=0),
            ]
        )
        assert merged["metrics"]["reqs"]["value"] == 10 + 7 + 5
        assert "merge_conflicts" not in merged["metrics"]["reqs"]
        manifest = {row["label"]: row for row in merged["parts"]}
        assert manifest["bdn:0#1"]["merged"] is False

    def test_differing_gauge_values_flagged_last_still_wins(self):
        merged = merge_process_snapshots(
            [
                {"label": "a", "wall_offset": 0.0,
                 "snapshot": snapshot(metrics={"g": {"kind": "gauge", "value": 4}})},
                {"label": "b", "wall_offset": 0.0,
                 "snapshot": snapshot(metrics={"g": {"kind": "gauge", "value": 4}})},
                {"label": "c", "wall_offset": 0.0,
                 "snapshot": snapshot(metrics={"g": {"kind": "gauge", "value": 9}})},
            ]
        )
        assert merged["metrics"]["g"]["value"] == 9  # last write still wins
        assert merged["metrics"]["g"]["gauge_conflicts"] == 1  # a==b, c differs


def bdn_report(name, intervals, wall_offset=0.0, **queue):
    defaults = {"capacity": 32, "max_depth": 0, "depth": 0, "overflows": 0, "shed": 0}
    defaults.update(queue)
    return {
        "role": "bdn:x",
        "label": f"{name}#0",
        "wall_offset": wall_offset,
        "bdn": {
            "name": name,
            "leadership_intervals": intervals,
            "stale_targets": 0,
            "queue": defaults,
        },
    }


def load_report(rounds):
    return {"role": "load", "label": "load#0", "wall_offset": 0.0, "load": {"rounds": rounds}}


def ok_round(i, total=0.1):
    return {
        "client": "c0", "round": i, "uuid": f"u{i}", "success": True,
        "selected": "b0", "via": "bdn", "total_time": total,
        "transmissions": 1, "phases": {"issue_request": total / 2}, "aborted": False,
    }


def invariant_names(violations):
    return [v.split()[0] for v in violations]


class TestElectionSafety:
    """Intervals reach the predicate by member name, rebased onto the
    wall clock, judged with the live epsilon."""

    def names(self, *bdn_reports):
        reports = [*bdn_reports, load_report([ok_round(0)])]
        return invariant_names(check_invariants(ClusterSpec(), reports))

    def test_disjoint_leaderships_are_safe(self):
        assert self.names(
            bdn_report("d0", [[1.0, 0.0, 5.0]]), bdn_report("d1", [[2.0, 5.2, 9.0]])
        ) == []

    def test_overlap_between_members_is_a_violation(self):
        assert self.names(
            bdn_report("d0", [[1.0, 0.0, 5.0]]), bdn_report("d1", [[2.0, 4.0, 9.0]])
        ) == ["election_safety"]

    def test_same_member_may_overlap_itself(self):
        # Two incarnations of one member (a respawn) report under one
        # name: their consecutive terms can't violate safety.
        assert self.names(
            bdn_report("d0", [[1.0, 0.0, 5.0]]), bdn_report("d0", [[2.0, 4.0, 9.0]])
        ) == []

    def test_sub_epsilon_handoff_tolerated(self):
        assert self.names(
            bdn_report("d0", [[1.0, 0.0, 5.0]]), bdn_report("d1", [[2.0, 4.97, 9.0]])
        ) == []

    def test_wall_offsets_rebase_intervals(self):
        # 2s of leadership at local t in [1, 3), process born 10s later:
        # on the wall axis the two never overlap.
        reports = [
            bdn_report("d0", [[1.0, 1.0, 3.0]], wall_offset=100.0),
            bdn_report("d1", [[2.0, 1.0, 3.0]], wall_offset=110.0),
        ]
        merged = merge_leadership_intervals(reports)
        assert merged[0][2:] == (101.0, 103.0)
        assert merged[1][2:] == (111.0, 113.0)
        assert self.names(*reports) == []


class TestInvariants:
    """The exit-report adapter: report dicts in, formatted verdict out.

    The predicates themselves are tested in tests/core/test_invariants.py.
    """

    def spec(self):
        return ClusterSpec(p99_bound=1.0)

    def bdn(self, **queue):
        return bdn_report("d0", [[1.0, 0.0, 4.0]], **queue)

    def test_clean_run_has_no_violations(self):
        reports = [self.bdn(), load_report([ok_round(0), ok_round(1)])]
        assert check_invariants(self.spec(), reports) == []

    def test_failed_discovery_reported(self):
        bad = dict(ok_round(3), success=False, selected=None)
        violations = check_invariants(self.spec(), [self.bdn(), load_report([bad])])
        assert violations == [
            "zero_failed_discoveries (c0): round 3 (u3) failed via 'bdn'"
        ]

    def test_aborted_rounds_excluded(self):
        aborted = dict(ok_round(3), success=False, aborted=True)
        reports = [self.bdn(), load_report([ok_round(0), aborted])]
        assert check_invariants(self.spec(), reports) == []

    def test_empty_run_is_a_violation(self):
        # No rounds, no latencies, and a replicated spec nobody led.
        assert invariant_names(check_invariants(self.spec(), [])) == ["no_evidence"] * 3

    def test_queue_overflow_reported(self):
        reports = [self.bdn(max_depth=40, capacity=32), load_report([ok_round(0)])]
        assert invariant_names(check_invariants(self.spec(), reports)) == ["queue_capacity"]
        reports = [self.bdn(overflows=2, depth=9), load_report([ok_round(0)])]
        assert invariant_names(check_invariants(self.spec(), reports)) == [
            "queue_overflow",
            "queue_watermark",
        ]

    def test_stale_targets_reported(self):
        report = self.bdn()
        report["bdn"]["stale_targets"] = 2
        violations = check_invariants(self.spec(), [report, load_report([ok_round(0)])])
        assert invariant_names(violations) == ["stale_targets"]

    def test_absent_queue_evidence_is_a_violation(self):
        # A worker whose BDN has no ingress queue reports "queue": null;
        # that is missing evidence, not a queue that stayed at zero.
        async def boot_and_report():
            spec = self.spec()
            spec.assign_ports()
            worker = Worker(spec, "bdn:0", cold=True, report_path="unused")
            worker.boot()
            try:
                await worker.rt.ready()
                worker.bdn.ingress = None  # booted without the spec's service model
                return worker.build_report()
            finally:
                await worker.rt.aclose()

        report = asyncio.run(boot_and_report())
        assert report["bdn"]["queue"] is None
        violations = check_invariants(self.spec(), [report, load_report([ok_round(0)])])
        assert [v for v in violations if "queue" in v] == [
            "no_evidence (d0): no ingress-queue evidence"
        ]

    def test_absent_queue_evidence_is_loud_on_all_three_paths(self, monkeypatch):
        # A BDN built without a ServiceConfig: its telemetry frames must
        # omit the queue keys (not send zeros), and the live monitor, the
        # exit report and the chaos check must all say ``no_evidence``.
        monkeypatch.setattr(
            ClusterSpec, "bdn_config", lambda self: BDNConfig(injection="all")
        )

        async def boot():
            spec = self.spec()
            spec.assign_ports()
            worker = Worker(spec, "bdn:0", cold=True, report_path="unused")
            worker.boot()
            try:
                await worker.rt.ready()
                chaos: list[str] = []
                _check_overload(
                    SimpleNamespace(
                        bdns=[worker.bdn],
                        ADMISSION_WATERMARK=spec.admission_watermark,
                        client=SimpleNamespace(_breakers={}),
                    ),
                    chaos,
                )
                return worker.live_stats(), worker.build_report(), chaos
            finally:
                await worker.rt.aclose()

        stats, report, chaos = asyncio.run(boot())
        assert not [key for key in stats if key.startswith("queue_")]

        now = [0.0]
        monitor = SloMonitor(self.spec().slo_config(), clock=lambda: now[0])
        monitor.start()
        view = RollingClusterView()
        view.fold({"role": "bdn:0", "incarnation": 0, "seq": 0, "stats": stats}, now=1.0)
        now[0] = self.spec().slo_window  # the first window closes
        (live,) = monitor.maybe_evaluate(view)
        assert (live.invariant, live.process, live.window) == ("no_evidence", "bdn:0#0", 0)
        now[0] *= 2
        assert monitor.maybe_evaluate(view) == []  # said once, not every window

        # (The exit report also misses the leadership this unreplicated
        # BDN never logged; the queue verdict is the one compared here.)
        exit_report = [
            v
            for v in check_invariants(self.spec(), [report, load_report([ok_round(0)])])
            if "queue" in v
        ]
        assert invariant_names(exit_report) == ["no_evidence"] == invariant_names(chaos)
        assert live.detail in exit_report[0] and live.detail in chaos[0]

    def test_p99_bound_enforced(self):
        slow = ok_round(0, total=2.5)
        violations = check_invariants(self.spec(), [self.bdn(), load_report([slow])])
        assert invariant_names(violations) == ["p99_bound"]

    def test_summary_shape(self):
        spec = self.spec()
        reports = [
            bdn_report("d0", [[1.0, 0.0, 4.0]]),
            load_report([ok_round(0), ok_round(1, total=0.3)]),
        ]
        summary = summarize(spec, reports, ["bdn:1#0"], [(1.0, "crash", "bdn:1")])
        assert summary["rounds"] == 2
        assert summary["failures"] == 0
        assert summary["latency"]["max"] == 0.3
        assert summary["reports_missing"] == ["bdn:1#0"]
        assert summary["faults_injected"] == [[1.0, "crash", "bdn:1"]]
        assert summary["violations"] == []
        assert summary["phase_means"]["issue_request"] == 0.1
