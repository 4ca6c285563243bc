"""The chaos harness: seeded fault schedules with invariant checking."""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro.discovery.chaos import (
    _DISRUPTIVE,
    _KINDS,
    CHAOS_KINDS,
    REPLICATED_CHAOS_KINDS,
    STORM_KINDS,
    ChaosWorld,
    add_chaos_nodes,
    apply_schedule,
    draw_schedule,
    run_chaos,
)
from repro.discovery.world import World
from repro.obs import Observability
from repro.runtime import create_runtime
from tests.event_parity import sweep_run
from tests.runtime.virtual_loop import run

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

    def test_seed_to_schedule_map_is_pinned(self):
        """Seeds 0-19 of each pool draw exactly these schedules.  A
        reordered draw, or a change to a kind pool's contents or order,
        re-maps every seed the sweeps cover; this digest is what says so."""
        world = ChaosWorld(seed=0)
        schedules = [
            draw_schedule(np.random.default_rng(s), world, 10.0, 20.0, kinds=pool)
            for pool in (CHAOS_KINDS, STORM_KINDS, REPLICATED_CHAOS_KINDS)
            for s in range(20)
        ]
        digest = hashlib.sha256(repr(schedules).encode()).hexdigest()
        assert digest == "65e57e1116059a27b456af199081440ea9e79bd1ca9f5972d6d089cc8d686fe5"

    def test_every_kind_is_declared_once(self):
        assert sorted(_KINDS) == sorted(STORM_KINDS)
        assert set(CHAOS_KINDS) | set(REPLICATED_CHAOS_KINDS) <= set(STORM_KINDS)

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
            for action in draw_schedule(rng, world, start, 4.0, kinds=(kind,))
        )
        assert {action.kind for action in schedule} == set(STORM_KINDS)
        apply_schedule(world, schedule)
        world.sim.run_for(6.0)
        logged = {kind for _t, kind, _target in world.injector.injected}
        assert _DISRUPTIVE <= logged


class TestOverlappingWindows:
    def test_overlapping_partitions_intersect(self):
        """Plain seed 4 isolates d1, then opens a second partition that
        puts d1 on the client's side before d1's own window has closed.
        d1 must stay cut off until that window closes: the later
        partition neither replaces the earlier one nor is dissolved by
        its heal."""
        world = ChaosWorld(seed=4)
        net = world.net.network
        schedule = draw_schedule(np.random.default_rng(4), world, world.sim.now + 1.0, 20.0)
        isolate, split = (a for a in schedule if a.groups)
        assert isolate.kind == "bdn_group_partition"
        assert isolate.start < split.start < isolate.end < split.end
        apply_schedule(world, (isolate, split))
        world.sim.run_for(isolate.start + 4.0 - world.sim.now)
        assert not net.reachable("c0.host", "d1.host")
        world.sim.run_for(isolate.end + 0.1 - world.sim.now)
        assert net.reachable("c0.host", "d1.host")  # only the split is left
        world.sim.run_for(split.end + 0.1 - world.sim.now)
        assert all(net.reachable("c0.host", h) for h in world.all_hosts())


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
        moved: list[str] = []
        for seed in range(N_SEEDS):
            report = sweep_run("plain", seed, moved)
            if not report.ok:
                failures.append((seed, report.violations))
            kinds = {a.kind for a in report.schedule}
            if {"partition", "kill_bdn", "loss_storm"} <= kinds:
                combo_seeds.append(seed)
            reconnect = report.outcomes[-1]
            if reconnect.via != "cached" or not reconnect.success:
                failures.append((seed, [f"reconnect via={reconnect.via!r}"]))
        assert not moved, f"{moved[0]} (event_parity.py --seeds 20 --write-pins regenerates)"
        assert not failures, failures[:5]
        assert combo_seeds, "no schedule combined partition + kill_bdn + loss_storm"


class TestChaosWorldOnSockets:
    def test_plain_world_discovers_on_the_virtual_loop(self):
        """The plain chaos world's nodes, built on real loopback sockets in
        loop time, settle as ChaosWorld does (links, NTP, the first
        heartbeat round) and serve one discovery."""

        async def scenario():
            rt = create_runtime("aio")
            obs = Observability.for_runtime(rt)
            rt.attach_observability(obs)
            world = World(rt, seed=0, obs=obs)
            add_chaos_nodes(world)
            try:
                await rt.ready()
                await asyncio.sleep(8.0)
                done = asyncio.get_running_loop().create_future()
                world.client.discover(done.set_result)
                outcome = await asyncio.wait_for(done, timeout=60.0)
            finally:
                world.close()
                await rt.aclose()
            assert not rt.errors, list(rt.errors)
            return world, outcome

        world, outcome = run(scenario())
        assert outcome.success, outcome
        assert outcome.via == "bdn"
        assert outcome.selected.broker_id in {b.name for b in world.brokers}
        assert all(len(bdn.store) == ChaosWorld.N_BROKERS for bdn in world.bdns)
