"""Chaos with request storms against an overload-protected world."""

from __future__ import annotations

import numpy as np

from repro.discovery.chaos import (
    CHAOS_KINDS,
    STORM_KINDS,
    ChaosWorld,
    draw_schedule,
    run_chaos,
)
from tests.event_parity import sweep_run

N_SEEDS = 120


class TestStormSchedule:
    def test_storm_kinds_extend_chaos_kinds(self):
        assert STORM_KINDS[: len(CHAOS_KINDS)] == CHAOS_KINDS
        assert "request_storm" in STORM_KINDS
        assert "request_storm" not in CHAOS_KINDS

    def test_legacy_schedules_unchanged_by_storm_kinds(self):
        """Adding request storms must not re-map existing seeds'
        schedules: the default kind pool is untouched."""
        world = ChaosWorld(seed=0)
        legacy = draw_schedule(np.random.default_rng(42), world, start=10.0, duration=20.0)
        again = draw_schedule(
            np.random.default_rng(42), world, start=10.0, duration=20.0, kinds=CHAOS_KINDS
        )
        assert legacy == again

    def test_storm_actions_target_bdns_with_positive_rate(self):
        world = ChaosWorld(seed=0)
        bdn_names = {b.name for b in world.bdns}
        rng = np.random.default_rng(3)
        storm_seen = False
        for _ in range(20):
            for action in draw_schedule(
                rng, world, start=5.0, duration=20.0, kinds=STORM_KINDS
            ):
                if action.kind != "request_storm":
                    continue
                storm_seen = True
                assert action.targets[0] in bdn_names
                assert action.intensity > 0
        assert storm_seen


class TestOverloadWorld:
    def test_overload_world_has_queues_and_policy(self):
        world = ChaosWorld(seed=0, overload=True)
        for bdn in world.bdns:
            assert bdn.ingress is not None
            assert bdn.config.admission_high_watermark > 0
        assert world.client.retry_budget is not None

    def test_default_world_stays_instant(self):
        world = ChaosWorld(seed=0)
        for bdn in world.bdns:
            assert bdn.ingress is None
        assert world.client.retry_budget is None
        assert world.client.config.retry_policy is None

    def test_single_overload_seed_green(self):
        report = run_chaos(seed=1, kinds=STORM_KINDS, overload=True)
        assert report.ok, report.violations
        assert len(report.outcomes) >= 4


class TestOverloadSweep:
    def test_overload_sweep_green(self):
        """The ISSUE acceptance sweep: >= 100 seeded schedules drawn
        from the storm-extended kind pool against the protected world,
        every invariant green, and at least one schedule actually
        containing a request storm (so the sweep exercises the feature,
        not just tolerates its absence)."""
        failures = []
        storm_seeds = []
        moved: list[str] = []
        for seed in range(N_SEEDS):
            report = sweep_run("overload", seed, moved)
            if not report.ok:
                failures.append((seed, report.violations))
            if any(a.kind == "request_storm" for a in report.schedule):
                storm_seeds.append(seed)
        assert not moved, f"{moved[0]} (event_parity.py --seeds 20 --write-pins regenerates)"
        assert not failures, failures[:5]
        assert storm_seeds, "no schedule drew a request_storm"
