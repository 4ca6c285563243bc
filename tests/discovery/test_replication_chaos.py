"""Chaos against the replicated BDN control plane.

The replicated world raises the bar over the plain chaos sweep: faults
only ever touch a minority of the three-member group, so failover must
mask them *completely* -- every discovery attempt succeeds -- while no
two members ever hold overlapping leader leases and the members'
registries converge once the faults heal.
"""

from __future__ import annotations

import numpy as np

from repro.discovery.chaos import (
    REPLICATED_CHAOS_KINDS,
    ChaosAction,
    ChaosWorld,
    apply_schedule,
    draw_schedule,
    run_chaos,
)

N_SEEDS = 120


class TestReplicatedWorld:
    def test_world_shape(self):
        world = ChaosWorld(seed=0, replicated=True)
        assert len(world.bdns) == world.N_REPLICAS
        assert sum(1 for b in world.bdns if b.replication.is_leader()) == 1
        for responder in world.responders.values():
            assert responder.heartbeat is not None
        assert world.client.config.retry_policy is not None

    def test_replicated_kind_pool(self):
        world = ChaosWorld(seed=0, replicated=True)
        rng = np.random.default_rng(3)
        for _ in range(10):
            schedule = draw_schedule(
                rng, world, start=10.0, duration=20.0, kinds=REPLICATED_CHAOS_KINDS
            )
            for action in schedule:
                assert action.kind in REPLICATED_CHAOS_KINDS
                if action.kind == "bdn_group_partition":
                    # Both groups together must cover every host, or
                    # Network.partition's implicit extra group would
                    # change the cut's meaning.
                    flat = sorted(h for g in action.groups for h in g)
                    assert flat == sorted(world.all_hosts())
                    assert len(action.groups[0]) == 1


class TestLeaderKillMidDiscovery:
    def test_zero_outage_and_convergence(self):
        """The ISSUE acceptance schedule: kill the leader mid-discovery
        and partition the group; discovery never fails and the
        registries converge after the heal."""
        world = ChaosWorld(seed=7, replicated=True)
        leader = next(b for b in world.bdns if b.replication.is_leader())
        follower = next(b for b in world.bdns if not b.replication.is_leader())
        start = world.sim.now + 0.05  # mid-first-discovery
        schedule = (
            ChaosAction("kill_bdn", start, 8.0, targets=(leader.name,)),
            ChaosAction(
                "bdn_group_partition",
                start + 2.0,
                6.0,
                targets=(follower.name,),
                groups=(
                    (follower.host,),
                    tuple(h for h in world.all_hosts() if h != follower.host),
                ),
            ),
        )
        apply_schedule(world, schedule)
        outcomes = []
        deadline = world.sim.now + 30.0
        while world.sim.now < deadline:
            box = []
            world.client.discover(box.append)
            while not box and world.sim.step():
                pass
            outcomes.append(box[0])
            world.sim.run_for(0.5)
        assert outcomes and all(o.success for o in outcomes), [
            (i, o.via) for i, o in enumerate(outcomes) if not o.success
        ]
        # Everything healed: one leader, converged registries.
        world.sim.run_for(world.REPLICATION["anti_entropy_interval"] + 2.0)
        assert sum(1 for b in world.bdns if b.replication.is_leader()) == 1
        now = world.sim.now
        registries = {b.name: frozenset(b.store.broker_ids(now)) for b in world.bdns}
        assert len(set(registries.values())) == 1, registries
        assert registries[world.bdns[0].name] == frozenset(
            b.name for b in world.brokers
        )


class TestReplicatedChaosSweep:
    def test_120_seeds_green(self):
        """Satellite sweep: 120 seeded replicated schedules, all green
        -- election safety, zero failed discoveries, and post-heal
        convergence checked on every one."""
        failures = []
        kinds_seen = set()
        for seed in range(N_SEEDS):
            report = run_chaos(seed, replicated=True)
            if not report.ok:
                failures.append((seed, report.violations))
            kinds_seen |= {a.kind for a in report.schedule}
            if not all(o.success for o in report.outcomes):
                failures.append((seed, ["an outcome failed without a violation"]))
        assert not failures, failures[:5]
        assert kinds_seen == set(REPLICATED_CHAOS_KINDS)

    def test_a_leader_never_grants_a_same_term_rival(self):
        """Seed 328: a member that missed term 3's election claims term
        3 itself.  While the leader's own grant had lapsed (it was never
        renewed after the election), the leader granted that claim and
        both members led term 3 for ~24 s.  The leader's heartbeat now
        renews its self-grant with its self-vote."""
        report = run_chaos(328, replicated=True)
        assert report.ok, report.violations
