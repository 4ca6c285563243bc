"""Cross-process telemetry merge and the collect-side soak invariants."""

from __future__ import annotations

import asyncio

from repro.cluster.report import (
    check_election_safety,
    check_invariants,
    merge_leadership_intervals,
    summarize,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.worker import Worker
from repro.obs.cluster import SEQ_STRIDE, merge_process_snapshots


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


class TestElectionSafety:
    def test_disjoint_leaderships_are_safe(self):
        intervals = [("d0", 1.0, 0.0, 5.0), ("d1", 2.0, 5.2, 9.0)]
        assert check_election_safety(intervals) == []

    def test_overlap_between_members_is_a_violation(self):
        intervals = [("d0", 1.0, 0.0, 5.0), ("d1", 2.0, 4.0, 9.0)]
        assert len(check_election_safety(intervals)) == 1

    def test_same_member_may_overlap_itself(self):
        # One member's consecutive terms can't violate safety.
        intervals = [("d0", 1.0, 0.0, 5.0), ("d0", 2.0, 4.0, 9.0)]
        assert check_election_safety(intervals) == []

    def test_sub_epsilon_handoff_tolerated(self):
        intervals = [("d0", 1.0, 0.0, 5.0), ("d1", 2.0, 4.97, 9.0)]
        assert check_election_safety(intervals) == []

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
        assert check_election_safety(merged) == []


class TestInvariants:
    def spec(self):
        return ClusterSpec(p99_bound=1.0)

    def test_clean_run_has_no_violations(self):
        reports = [
            bdn_report("d0", [[1.0, 0.0, 4.0]]),
            load_report([ok_round(0), ok_round(1)]),
        ]
        assert check_invariants(self.spec(), reports) == []

    def test_failed_discovery_reported(self):
        bad = dict(ok_round(3), success=False, selected=None)
        violations = check_invariants(self.spec(), [load_report([bad])])
        assert any("failed discovery" in v for v in violations)

    def test_aborted_rounds_excluded(self):
        aborted = dict(ok_round(3), success=False, aborted=True)
        reports = [load_report([ok_round(0), aborted])]
        assert check_invariants(self.spec(), reports) == []

    def test_empty_run_is_a_violation(self):
        assert any("no load rounds" in v for v in check_invariants(self.spec(), []))

    def test_queue_overflow_reported(self):
        reports = [
            bdn_report("d0", [], max_depth=40, capacity=32),
            load_report([ok_round(0)]),
        ]
        assert any("capacity" in v for v in check_invariants(self.spec(), reports))

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
            "d0: no ingress-queue evidence in the report"
        ]

    def test_p99_bound_enforced(self):
        slow = ok_round(0, total=2.5)
        violations = check_invariants(self.spec(), [load_report([slow])])
        assert any("p99" in v for v in violations)

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
