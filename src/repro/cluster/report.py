"""Cluster run collection: merge worker reports, assert soak invariants.

The live counterparts of the sim chaos checks (``repro.discovery.chaos``):

* **Zero failed discoveries** with replication on -- every recorded load
  round must have selected a broker (rounds a drain deliberately
  aborted are excluded, exactly like the sim excludes runs it never
  finished driving).
* **Election safety** -- per-process leadership intervals are rebased
  onto the shared wall clock via each report's ``wall_offset`` and
  checked pairwise across *different* members for overlap.  The live
  epsilon is 50 ms (vs 1 ns in simulation): same-host wall clocks agree
  far tighter than that, and the leases under test are seconds long.
* **Queue bounds** (PR 3) -- no BDN ingress queue may ever exceed its
  configured capacity, and none may still be above the admission
  watermark at exit.
* **Bounded client latency** -- the p99 of client-observed round times
  must stay under the spec's bound even across restarts and storms.

The merged cluster timeline (every process's flight-recorder ring on one
wall-clock axis) comes from :func:`repro.obs.cluster.merge_process_snapshots`.
"""

from __future__ import annotations

import math

from repro.cluster.spec import ClusterSpec
from repro.core.invariants import election_overlaps
from repro.obs.cluster import merge_process_snapshots

__all__ = [
    "LIVE_ELECTION_EPS",
    "merge_leadership_intervals",
    "check_election_safety",
    "collect_rounds",
    "merged_cluster_snapshot",
    "check_invariants",
    "summarize",
]

#: Live overlap tolerance (seconds).  Wall clocks on one host agree to
#: well under a millisecond; 50 ms absorbs report-serialisation skew
#: while staying two orders of magnitude below the 2 s leases.
LIVE_ELECTION_EPS = 0.05


def merge_leadership_intervals(reports: list[dict]) -> list[tuple[str, float, float, float]]:
    """``(member, term, start_wall, until_wall)`` across all BDN reports.

    Each worker logs intervals in its own ``runtime.now`` units; adding
    its ``wall_offset`` moves them onto the shared wall-clock axis, so
    intervals from different incarnations and different processes are
    directly comparable.
    """
    merged = []
    for report in reports:
        bdn = report.get("bdn")
        if not bdn:
            continue
        offset = report["wall_offset"]
        for term, start, until in bdn.get("leadership_intervals", ()):
            merged.append((bdn["name"], float(term), start + offset, until + offset))
    return sorted(merged, key=lambda row: row[2])


def check_election_safety(
    intervals: list[tuple[str, float, float, float]], eps: float = LIVE_ELECTION_EPS
) -> list[str]:
    return [
        "election safety: "
        f"{a[0]} led term {a[1]:g} over [{a[2]:.3f}, {a[3]:.3f}) "
        f"overlapping {b[0]} term {b[1]:g} over [{b[2]:.3f}, {b[3]:.3f})"
        for a, b in election_overlaps(intervals, eps)
    ]


def collect_rounds(reports: list[dict]) -> list[dict]:
    """Every recorded (non-aborted) load round across load reports."""
    rounds = []
    for report in reports:
        load = report.get("load")
        if not load:
            continue
        rounds.extend(r for r in load.get("rounds", ()) if not r.get("aborted"))
    return rounds


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def merged_cluster_snapshot(reports: list[dict]) -> dict:
    parts = [
        {
            "label": report.get("label", report.get("role", "?")),
            "wall_offset": report.get("wall_offset", 0.0),
            "snapshot": report.get("telemetry"),
        }
        for report in reports
    ]
    return merge_process_snapshots(parts)


def check_invariants(spec: ClusterSpec, reports: list[dict]) -> list[str]:
    """Every soak invariant over one run's reports; empty = healthy."""
    violations: list[str] = []
    rounds = collect_rounds(reports)
    if not rounds:
        violations.append("no load rounds were recorded")
    failures = [r for r in rounds if not r["success"]]
    for failure in failures:
        violations.append(
            f"failed discovery: {failure['client']} round {failure['round']} "
            f"({failure['uuid']}) via {failure['via']!r}"
        )
    violations.extend(check_election_safety(merge_leadership_intervals(reports)))
    for report in reports:
        bdn = report.get("bdn")
        if not bdn:
            continue
        label = report.get("label", bdn["name"])
        queue = bdn.get("queue")
        if queue is None:
            # Every spec configures a service model, so a BDN without
            # an ingress queue is not the BDN the bounds were set for.
            violations.append(f"{label}: no ingress-queue evidence in the report")
        else:
            if queue["max_depth"] > queue["capacity"]:
                violations.append(
                    f"{label}: queue peaked at {queue['max_depth']} "
                    f"> capacity {queue['capacity']}"
                )
            if queue["depth"] > spec.admission_watermark:
                violations.append(
                    f"{label}: queue still {queue['depth']} deep at exit "
                    f"(watermark {spec.admission_watermark})"
                )
        if bdn.get("stale_targets"):
            violations.append(
                f"{label}: {bdn['stale_targets']} expired advertisement(s) used as targets"
            )
    p99 = _percentile([r["total_time"] for r in rounds], 0.99)
    if p99 > spec.p99_bound:
        violations.append(
            f"latency: client-observed p99 {p99:.3f}s > bound {spec.p99_bound:.1f}s"
        )
    return violations


def _phase_means(rounds: list[dict]) -> dict[str, float]:
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in rounds:
        for phase, duration in record.get("phases", {}).items():
            sums[phase] = sums.get(phase, 0.0) + duration
            counts[phase] = counts.get(phase, 0) + 1
    return {phase: sums[phase] / counts[phase] for phase in sums}


def summarize(
    spec: ClusterSpec,
    reports: list[dict],
    missing: list[str],
    injected: list[tuple[float, str, str]],
    live: dict | None = None,
) -> dict:
    """The run's JSON summary: outcomes, invariants, merged telemetry refs.

    ``live`` is the :meth:`~repro.obs.live.LiveTelemetry.summary` of the
    streaming plane (frames folded, SLO windows, violations, trend); the
    CI smoke asserts on ``summary["slo"]`` when present.
    """
    rounds = collect_rounds(reports)
    successes = [r for r in rounds if r["success"]]
    totals = [r["total_time"] for r in rounds]
    client_counters: dict[str, dict] = {}
    for report in reports:
        for name, counters in report.get("load", {}).get("clients", {}).items():
            client_counters[name] = counters
    # Per-phase CPU attribution per profiled process; the raw collapsed
    # stacks are written separately (``--flamegraph``), not inlined here.
    profiles = {
        report["label"]: {
            k: v for k, v in report["profile"].items() if k != "collapsed"
        }
        for report in reports
        if report.get("profile") and report.get("label")
    }
    return {
        "slo": live,
        "profiles": profiles,
        "spec": {
            "n_bdns": spec.n_bdns,
            "n_brokers": spec.n_brokers,
            "n_clients": spec.n_clients,
            "seed": spec.seed,
            "rounds_per_client": spec.rounds,
            "mean_gap": spec.mean_gap,
        },
        "rounds": len(rounds),
        "failures": len(rounds) - len(successes),
        "aborted": sum(r.get("load", {}).get("aborted", 0) for r in reports),
        "latency": {
            "mean": sum(totals) / len(totals) if totals else 0.0,
            "p50": _percentile(totals, 0.50),
            "p99": _percentile(totals, 0.99),
            "max": max(totals, default=0.0),
        },
        "phase_means": _phase_means(rounds),
        "leadership_intervals": [
            list(row) for row in merge_leadership_intervals(reports)
        ],
        "client_counters": client_counters,
        "faults_injected": [list(row) for row in injected],
        "reports_collected": len(reports),
        "reports_missing": missing,
        "violations": check_invariants(spec, reports),
    }
