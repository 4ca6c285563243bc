"""Cluster run collection: merge worker reports, assert soak invariants.

:func:`gather_evidence` reads one run's exit reports into the
:class:`~repro.core.invariants.Evidence` record -- recorded load rounds,
leadership intervals rebased onto the shared wall clock via each
report's ``wall_offset``, per-BDN queue stats and stale-target counts,
the p99 of client-observed round times -- and :func:`check_invariants`
holds it to the whole check list of
:func:`~repro.core.invariants.verdict` (docs/PROTOCOL.md "Soak
invariants").

The merged cluster timeline (every process's flight-recorder ring on one
wall-clock axis) comes from :func:`repro.obs.cluster.merge_process_snapshots`.
"""

from __future__ import annotations

import math

from repro.cluster.spec import ClusterSpec
from repro.core.invariants import (
    LIVE_ELECTION_EPS,
    Evidence,
    QueueStats,
    failed,
    recorded,
    verdict,
)
from repro.obs.cluster import merge_process_snapshots

__all__ = [
    "round_record",
    "merge_leadership_intervals",
    "collect_rounds",
    "percentile",
    "merged_cluster_snapshot",
    "gather_evidence",
    "check_invariants",
    "phase_means",
    "summarize",
]


def round_record(client: str, index: int, outcome, aborted: bool = False) -> dict:
    """One discovery round as the reports, the invariants and the phase
    tables read it (``outcome`` is a ``DiscoveryOutcome``)."""
    return {
        "client": client,
        "round": index,
        "uuid": outcome.request_uuid,
        "success": bool(outcome.success),
        "selected": outcome.selected.broker_id if outcome.selected else None,
        "via": outcome.via,
        "total_time": outcome.total_time,
        "transmissions": outcome.transmissions,
        "phases": dict(outcome.phases.durations()),
        "aborted": aborted,
    }


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


def collect_rounds(reports: list[dict]) -> list[dict]:
    """Every recorded (non-aborted) load round across load reports."""
    return [
        r for report in reports for r in recorded(report.get("load", {}).get("rounds", ()))
    ]


def percentile(values: list[float], q: float) -> float:
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


def gather_evidence(spec: ClusterSpec, reports: list[dict]) -> Evidence:
    """One run's exit reports as the invariants' evidence record.

    Every spec configures a service model, so a BDN report whose
    ``queue`` is null is missing evidence; a replicated tier that
    reported no leadership at all likewise.
    """
    rounds = collect_rounds(reports)
    intervals = merge_leadership_intervals(reports)
    bdns = {
        report.get("label", report["bdn"]["name"]): report["bdn"]
        for report in reports
        if report.get("bdn")
    }
    return Evidence(
        rounds=rounds,
        intervals=None if spec.n_bdns > 1 and not intervals else intervals,
        queues={
            label: bdn.get("queue") and QueueStats(*(bdn["queue"][k] for k in QueueStats._fields))
            for label, bdn in bdns.items()
        },
        stale_targets={label: bdn.get("stale_targets", 0) for label, bdn in bdns.items()},
        p99=percentile([r["total_time"] for r in rounds], 0.99) if rounds else None,
    )


def check_invariants(spec: ClusterSpec, reports: list[dict]) -> list[str]:
    """Every soak invariant over one run's reports; empty = healthy."""
    breaches = verdict(
        gather_evidence(spec, reports),
        election_eps=LIVE_ELECTION_EPS,
        watermark=spec.admission_watermark,
        p99_bound=spec.p99_bound,
    )
    return [str(breach) for breach in breaches]


def phase_means(rounds: list[dict]) -> dict[str, float]:
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
        "failures": len(failed(rounds)),
        "aborted": sum(r.get("load", {}).get("aborted", 0) for r in reports),
        "latency": {
            "mean": sum(totals) / len(totals) if totals else 0.0,
            "p50": percentile(totals, 0.50),
            "p99": percentile(totals, 0.99),
            "max": max(totals, default=0.0),
        },
        "phase_means": phase_means(rounds),
        "leadership_intervals": [
            list(row) for row in merge_leadership_intervals(reports)
        ],
        "client_counters": client_counters,
        "faults_injected": [list(row) for row in injected],
        "reports_collected": len(reports),
        "reports_missing": missing,
        "violations": check_invariants(spec, reports),
    }
