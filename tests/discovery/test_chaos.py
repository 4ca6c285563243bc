"""The chaos harness: seeded fault schedules with invariant checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discovery.chaos import (
    _DISRUPTIVE,
    CHAOS_KINDS,
    STORM_KINDS,
    ChaosWorld,
    apply_schedule,
    draw_schedule,
    run_chaos,
)

N_SEEDS = 200


class TestDrawSchedule:
    def test_same_seed_same_schedule(self):
        world = ChaosWorld(seed=0)
        first = draw_schedule(np.random.default_rng(42), world, start=10.0, duration=20.0)
        second = draw_schedule(np.random.default_rng(42), world, start=10.0, duration=20.0)
        assert first == second

    def test_actions_stay_inside_window(self):
        world = ChaosWorld(seed=0)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            schedule = draw_schedule(rng, world, start=10.0, duration=20.0)
            assert 2 <= len(schedule) <= 4
            for action in schedule:
                assert action.kind in CHAOS_KINDS
                assert action.start >= 10.0
                assert action.duration > 0
                assert action.end <= 30.0 + 1e-9

    def test_targets_are_real_hosts_and_nodes(self):
        world = ChaosWorld(seed=0)
        hosts = set(world.all_hosts())
        names = {n.name for n in (*world.brokers, *world.bdns)}
        rng = np.random.default_rng(7)
        for _ in range(10):
            for action in draw_schedule(rng, world, start=0.0, duration=20.0):
                if action.kind in ("fail_link", "link_loss_storm"):
                    assert set(action.targets) <= hosts
                    assert len(set(action.targets)) == 2
                elif action.kind in ("kill_bdn", "kill_broker"):
                    assert set(action.targets) <= names
                elif action.kind == "partition":
                    flat = [h for g in action.groups for h in g]
                    assert sorted(flat) == sorted(hosts)
                    assert all(g for g in action.groups)

    def test_rejects_empty_window(self):
        world = ChaosWorld(seed=0)
        with pytest.raises(ValueError):
            draw_schedule(np.random.default_rng(0), world, start=0.0, duration=0.0)


class TestDisruptiveKinds:
    def test_disruptive_names_are_logged_kinds(self):
        """The aliveness excuse matches ``_DISRUPTIVE`` against the
        injector's log, so each name must be a kind the log carries
        once one action of every schedule kind has been applied."""
        world = ChaosWorld(seed=0)
        rng = np.random.default_rng(0)
        start = world.sim.now + 1.0
        schedule = tuple(
            action
            for kind in STORM_KINDS
            for action in draw_schedule(
                rng, world, start, 4.0, min_actions=1, max_actions=1, kinds=(kind,)
            )
        )
        assert {action.kind for action in schedule} == set(STORM_KINDS)
        apply_schedule(world, schedule)
        world.sim.run_for(6.0)
        logged = {kind for _t, kind, _target in world.injector.injected}
        assert _DISRUPTIVE <= logged


class TestRunChaos:
    def test_single_seed_runs_green(self):
        report = run_chaos(seed=1)
        assert report.ok, report.violations
        assert report.seed == 1
        assert len(report.schedule) >= 2
        # warm + at least one windowed + final + reconnect
        assert len(report.outcomes) >= 4

    def test_reconnect_goes_through_cache(self):
        report = run_chaos(seed=1)
        assert report.ok, report.violations
        reconnect = report.outcomes[-1]
        assert reconnect.via == "cached"
        assert reconnect.success
        # The cached path re-issues to known targets: no BDN involved.
        assert reconnect.bdn_used is None


class TestChaosSweep:
    def test_200_seeds_green(self):
        """The ISSUE acceptance sweep: 200 seeded schedules, all green,
        at least one combining a partition with a BDN kill and a loss
        storm, and the cached reconnect exercised end to end."""
        failures = []
        combo_seeds = []
        for seed in range(N_SEEDS):
            report = run_chaos(seed)
            if not report.ok:
                failures.append((seed, report.violations))
            kinds = {a.kind for a in report.schedule}
            if {"partition", "kill_bdn", "loss_storm"} <= kinds:
                combo_seeds.append(seed)
            reconnect = report.outcomes[-1]
            if reconnect.via != "cached" or not reconnect.success:
                failures.append((seed, [f"reconnect via={reconnect.via!r}"]))
        assert not failures, failures[:5]
        assert combo_seeds, "no schedule combined partition + kill_bdn + loss_storm"
