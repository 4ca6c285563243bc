"""Ablation -- partitions and chaos schedules (robustness extension).

Two sweeps over the chaos world (four-broker self-healing ring, two
BDNs with leased registrations, one client):

1. **Partition recovery** -- the client is partitioned away from the
   whole service side for a window; discovery during the cut must fail
   terminally (no wedging) and the first post-heal discovery measures
   the recovery latency.
2. **Chaos seeds** -- full :func:`repro.discovery.chaos.run_chaos`
   scenarios over a seed range: invariant violations must be zero and
   the windowed success rate quantifies how much turbulence the
   protocol absorbs.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import record_report
from repro.discovery.chaos import ChaosWorld, run_chaos
from repro.experiments.harness import run_discovery_once
from repro.experiments.report import comparison_table

CUT_DURATIONS = (2.0, 6.0, 12.0)
CHAOS_SEEDS = range(20)


def _client_cut(world: ChaosWorld, heal_at: float) -> None:
    """Partition the client away from every broker and BDN until ``heal_at``."""
    world.injector.partition([world.client.host])
    world.injector.heal([world.client.host], at=heal_at)


def test_ablation_partition_recovery(benchmark):
    rows = []
    recovery_times = {}
    for duration in CUT_DURATIONS:
        world = ChaosWorld(seed=17)
        warm = run_discovery_once(world.client)
        assert warm.success
        heal_at = world.sim.now + duration
        _client_cut(world, heal_at)
        # Discoveries during the cut terminate unsuccessfully.
        failures = 0
        while world.sim.now < heal_at:
            outcome = run_discovery_once(world.client)
            failures += not outcome.success
            world.sim.run_for(0.25)
        # First success after the heal = recovery latency.
        recovered_at = None
        deadline = heal_at + 30.0
        while world.sim.now < deadline:
            outcome = run_discovery_once(world.client)
            if outcome.success:
                recovered_at = world.sim.now
                break
            world.sim.run_for(0.25)
        assert recovered_at is not None, f"no recovery after {duration}s cut"
        recovery_times[duration] = recovered_at - heal_at
        rows.append(
            (
                f"{duration:g} s cut",
                {
                    "failed during cut": float(failures),
                    "recovery (s)": recovery_times[duration],
                },
            )
        )
    benchmark.pedantic(
        lambda: run_discovery_once(ChaosWorld(seed=17).client),
        rounds=3,
        iterations=1,
    )
    record_report(
        "abl-partitions",
        comparison_table(
            rows,
            columns=["failed during cut", "recovery (s)"],
            title="Ablation -- client partitioned away, then healed",
        ),
    )
    # Recovery is prompt regardless of how long the cut lasted: leases
    # re-establish within one heartbeat on the service side.
    assert all(t < 10.0 for t in recovery_times.values())


def test_ablation_chaos_seeds(benchmark):
    reports = [run_chaos(seed) for seed in CHAOS_SEEDS]
    violations = [v for r in reports for v in r.violations]
    assert violations == [], violations[:5]

    windowed = [o for r in reports for o in r.outcomes[1:-2]]
    ok = [o for o in windowed if o.success]
    rows = [
        (
            "windowed (under faults)",
            {
                "runs": float(len(windowed)),
                "success %": 100.0 * len(ok) / len(windowed),
                "mean total (ms)": float(np.mean([o.total_time * 1000 for o in ok])),
            },
        ),
        (
            "reconnect (cached)",
            {
                "runs": float(len(reports)),
                "success %": 100.0
                * sum(r.outcomes[-1].success for r in reports)
                / len(reports),
                "mean total (ms)": float(
                    np.mean([r.outcomes[-1].total_time * 1000 for r in reports])
                ),
            },
        ),
    ]
    benchmark.pedantic(lambda: run_chaos(seed=0), rounds=3, iterations=1)
    record_report(
        "abl-chaos",
        comparison_table(
            rows,
            columns=["runs", "success %", "mean total (ms)"],
            title="Ablation -- chaos schedules (20 seeds, invariants all green)",
        ),
    )
    # Even mid-turbulence most discoveries land; the cached reconnect
    # always does (it is part of the invariant set).
    assert len(ok) / len(windowed) >= 0.5
    assert all(r.outcomes[-1].via == "cached" for r in reports)
