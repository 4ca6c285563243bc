"""Cluster run collection: merge final frames, assert soak invariants.

A worker's exit report is its final ``telemetry`` frame
(:mod:`repro.cluster.worker`): the record every frame carries in
``stats``, plus the rings, rounds and profile only an exit needs.
:func:`gather_evidence` reads one run's final frames into the
:class:`~repro.core.invariants.Evidence` record -- recorded load rounds,
leadership intervals rebased onto the shared wall clock via each
frame's ``wall_offset``, per-BDN queue stats and stale-target counts,
each process's caught handler errors, the p99 of client-observed round
times -- from the same record keys the live
:class:`~repro.obs.slo.SloMonitor` reads, and :func:`check_invariants`
holds it to the whole check list of
:func:`~repro.core.invariants.verdict` (docs/PROTOCOL.md "Soak
invariants").  The :class:`~repro.core.invariants.Breach` list becomes
text only in :func:`summarize`'s ``"violations"``.

The merged cluster timeline (every process's flight-recorder ring on one
wall-clock axis) comes from :func:`repro.obs.cluster.merge_process_snapshots`.
"""

from __future__ import annotations

import math

from repro.cluster.spec import ADMISSION_WATERMARK, P99_BOUND, ClusterSpec
from repro.core.invariants import (
    LIVE_ELECTION_EPS,
    Breach,
    Evidence,
    failed,
    queue_stats,
    recorded,
    verdict,
)
from repro.obs.cluster import merge_process_snapshots
from repro.obs.live import rebased_intervals

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
    """One discovery round as the final frames, the invariants and the
    phase tables read it (``outcome`` is a ``DiscoveryOutcome``)."""
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


def merge_leadership_intervals(frames: list[dict]) -> list[tuple[str, float, float, float]]:
    """``(member, term, start_wall, until_wall)`` across all BDN frames."""
    return rebased_intervals((frame["stats"], frame["wall_offset"]) for frame in frames)


def collect_rounds(frames: list[dict]) -> list[dict]:
    """Every recorded (non-aborted) load round across the final frames."""
    return [r for frame in frames for r in recorded(frame.get("rounds", ()))]


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def merged_cluster_snapshot(frames: list[dict]) -> dict:
    """Every final frame's metrics and rings on one wall-clock axis."""
    return merge_process_snapshots(
        [
            {"label": frame["label"], "wall_offset": frame["wall_offset"], "snapshot": frame}
            for frame in frames
        ]
    )


def gather_evidence(spec: ClusterSpec, frames: list[dict]) -> Evidence:
    """One run's final frames as the invariants' evidence record.

    Every spec configures a service model, so a BDN record without queue
    keys is missing evidence; a replicated tier that reported no
    leadership at all likewise.
    """
    rounds = collect_rounds(frames)
    intervals = merge_leadership_intervals(frames)
    bdns = {
        frame["label"]: frame["stats"]
        for frame in frames
        if frame["role"].partition(":")[0] == "bdn"
    }
    return Evidence(
        rounds=rounds,
        intervals=None if spec.n_bdns > 1 and not intervals else intervals,
        queues={label: queue_stats(stats) for label, stats in bdns.items()},
        stale_targets={label: stats.get("stale_targets", 0) for label, stats in bdns.items()},
        handler_errors={
            frame["label"]: frame["stats"].get("handler_errors", 0) for frame in frames
        },
        p99=percentile([r["total_time"] for r in rounds], 0.99) if rounds else None,
    )


def check_invariants(spec: ClusterSpec, frames: list[dict]) -> list[Breach]:
    """Every soak invariant over one run's final frames; empty = healthy."""
    return verdict(
        gather_evidence(spec, frames),
        election_eps=LIVE_ELECTION_EPS,
        watermark=ADMISSION_WATERMARK,
        p99_bound=P99_BOUND,
    )


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
    frames: list[dict],
    missing: list[str],
    injected: list[tuple[float, str, str]],
    live: dict | None = None,
) -> dict:
    """The run's JSON summary: outcomes, invariants, merged telemetry refs.

    ``live`` is the :meth:`~repro.obs.live.LiveTelemetry.summary` of the
    streaming plane (frames folded, SLO windows, violations, trend); the
    CI smoke asserts on ``summary["slo"]`` when present.
    """
    rounds = collect_rounds(frames)
    totals = [r["total_time"] for r in rounds]
    client_counters: dict[str, dict] = {}
    for frame in frames:
        client_counters.update(frame["stats"].get("clients", {}))
    # Per-phase CPU attribution per profiled process; the raw collapsed
    # stacks are written separately (``--flamegraph``), not inlined here.
    profiles = {
        frame["label"]: {k: v for k, v in frame["profile"].items() if k != "collapsed"}
        for frame in frames
        if frame.get("profile")
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
        "aborted": sum(frame["stats"].get("aborted", 0) for frame in frames),
        "latency": {
            "mean": sum(totals) / len(totals) if totals else 0.0,
            "p50": percentile(totals, 0.50),
            "p99": percentile(totals, 0.99),
            "max": max(totals, default=0.0),
        },
        "phase_means": phase_means(rounds),
        "leadership_intervals": [
            list(row) for row in merge_leadership_intervals(frames)
        ],
        "client_counters": client_counters,
        "faults_injected": [list(row) for row in injected],
        "reports_collected": len(frames),
        "reports_missing": missing,
        "violations": [str(breach) for breach in check_invariants(spec, frames)],
    }
