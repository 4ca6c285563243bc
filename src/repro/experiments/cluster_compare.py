"""Sim-vs-cluster comparison: the same rolling-restart drill, twice.

The sim side runs the replicated chaos world (deterministic clock,
modelled latency) through a scripted sequential crash-restart of every
BDN replica while a seeded discovery schedule replays.  The cluster
side runs the *same protocol code* as real OS processes over loopback
UDP/TCP (``repro.cluster``) with the fault injector performing a live
rolling restart mid-load.  Both report per-phase mean latencies and are
held to the same check list (:func:`repro.core.invariants.verdict`),
rendered side by side by :func:`repro.experiments.report.cluster_table`.

The two columns are *not* expected to match absolutely -- the sim
models 10 ms links while loopback is microseconds, and live BDN service
time is configured faster -- but the structure must: every phase the
sim predicts shows up live, failures stay at zero on both sides, and no
two replicas ever hold overlapping leases.
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.cluster.coordinator import ClusterHarness
from repro.cluster.report import (
    collect_rounds,
    percentile,
    phase_means,
    round_record,
    summarize,
)
from repro.cluster.spec import ClusterSpec, derive_schedule
from repro.core.invariants import SIM_ELECTION_EPS, bdn_evidence, failed, verdict
from repro.discovery.chaos import ChaosAction, ChaosWorld, apply_schedule
from repro.experiments.harness import run_discovery_once
from repro.experiments.report import cluster_table

__all__ = ["simulate_rolling_restart", "run_live_cluster", "run_cluster_compare"]

#: Sim-side gap between consecutive replica crash-restarts (seconds).
#: Long enough for a re-election plus catch-up, short enough that the
#: whole restart overlaps the discovery schedule -- the same stagger
#: role the live injector's ``settle`` plays.
SIM_RESTART_STAGGER = 3.5
SIM_RESTART_OUTAGE = 2.0


def _column(rounds: list[dict], violations: list[str]) -> dict:
    """One side of the table, from recorded rounds and their verdict."""
    totals = [r["total_time"] for r in rounds]
    return {
        "phases": phase_means(rounds),
        "total_time": sum(totals) / len(totals) if totals else 0.0,
        "rounds": len(rounds),
        "failures": len(failed(rounds)),
        "violations": violations,
    }


def simulate_rolling_restart(seed: int, rounds: int, mean_gap: float) -> dict:
    """The sim column: the cluster's world (replicated group, service
    model, admission control) + scripted rolling restart."""
    world = ChaosWorld(seed, overload=True, replicated=True)
    start = world.sim.now + 1.0
    actions = []
    for bdn in world.bdns:
        actions.append(
            ChaosAction("bdn_crash_restart", start, SIM_RESTART_OUTAGE, targets=(bdn.name,))
        )
        start += SIM_RESTART_STAGGER
    apply_schedule(world, tuple(actions))

    records: list[dict] = []
    for index, gap in enumerate(derive_schedule(seed * 1009, rounds, mean_gap)):
        world.sim.run_for(gap)
        outcome = run_discovery_once(world.client, max_virtual_seconds=30.0)
        records.append(round_record(world.client.name, index, outcome))
    world.sim.run_for(SIM_RESTART_STAGGER)  # let the last revival settle

    evidence = replace(
        bdn_evidence(world.bdns),
        rounds=records,
        p99=percentile([r["total_time"] for r in records], 0.99),
    )
    # The check list the live column's exit reports are held to; sim
    # clocks are exact, so any overlap beyond float noise is real.
    breaches = verdict(
        evidence,
        election_eps=SIM_ELECTION_EPS,
        watermark=world.ADMISSION_WATERMARK,
        p99_bound=ClusterSpec.p99_bound,
    )
    return _column(records, [str(breach) for breach in breaches])


def run_live_cluster(seed: int, rounds: int, mean_gap: float, workdir: str) -> dict:
    """The cluster column: real processes, live rolling restart mid-load."""
    import time

    spec = ClusterSpec(seed=seed, rounds=rounds, mean_gap=mean_gap)
    harness = ClusterHarness(spec, workdir)
    harness.start()
    time.sleep(2.5)  # broker heartbeats must register before load starts
    harness.start_load()
    harness.injector.rolling_restart(settle=1.5)
    harness.wait_load_done(timeout=rounds * mean_gap * spec.n_clients + 90.0)
    harness.shutdown()
    reports, missing = harness.collect()
    summary = summarize(spec, reports, missing, harness.injector.injected)
    column = _column(collect_rounds(reports), summary["violations"])
    return {**column, "missing": missing, "summary": summary}


def run_cluster_compare(
    seed: int = 7, rounds: int = 40, mean_gap: float = 0.15, workdir: str = "cluster-run"
) -> int:
    """Run both sides, print the phase table, return a process exit code."""
    os.makedirs(workdir, exist_ok=True)
    print(f"sim: replicated chaos world, {rounds} rounds, scripted rolling restart ...")
    sim = simulate_rolling_restart(seed, rounds, mean_gap)
    print(
        f"live: {ClusterSpec().n_bdns}-BDN/{ClusterSpec().n_brokers}-broker cluster, "
        "rolling restart mid-load ..."
    )
    live = run_live_cluster(seed, rounds, mean_gap, workdir)
    print()
    print(cluster_table(sim, live))
    print()
    problems = [f"sim: {v}" for v in sim["violations"]]
    problems += [f"live: {v}" for v in live["violations"]]
    problems += [f"live report lost: {label}" for label in live["missing"]]
    if problems:
        for problem in problems:
            print(f"VIOLATION: {problem}")
        return 1
    print("every soak invariant held on both sides")
    return 0
