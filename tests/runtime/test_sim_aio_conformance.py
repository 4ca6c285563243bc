"""One seeded schedule, two runtimes, one verdict.

The reference world (:func:`repro.experiments.harness.star_world`) runs
the same schedule -- seeded gaps, one seeded broker stopped between
rounds -- on the deterministic simulator and on an in-process
:class:`~repro.runtime.aio.AioRuntime` over real loopback sockets.  Both
runs must be handed the same verdict by
:func:`repro.core.invariants.verdict` and leave the same per-request
causal span order behind -- and the client must have said the same plain
things, by name, on both.

Nothing here compares a duration across the two runtimes.  The schedule
is indexed by round, not by time; the verdict is compared by invariant
and subject; and the span order is the protocol's, not the wall clock's
(see :func:`causal_order`).  The one wall-clock bound is on the live side
alone: a sub-millisecond modelled cost must not cost a selector tick.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from repro.cluster.report import percentile, round_record
from repro.cluster.spec import derive_schedule
from repro.core.invariants import (
    LIVE_ELECTION_EPS,
    SIM_ELECTION_EPS,
    bdn_evidence,
    verdict,
)
from repro.experiments.harness import run_discovery_once, star_world
from repro.obs import Observability
from repro.obs.timeline import assemble
from repro.runtime import create_runtime
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss

SEED = 11
ROUNDS = 2


def schedule(seed: int) -> list[tuple[float, int | None]]:
    """``(gap before the round, broker index to stop first or None)``."""
    gaps = derive_schedule(seed, ROUNDS, mean_gap=0.05)
    victim = int(np.random.default_rng(seed).integers(3))
    return [(gaps[0], None), (gaps[1], victim)]


def causal_order(timeline) -> dict[str, list[tuple[str, str]]]:
    """Per node, the order in which each kind of span first appears.

    Which peer a span concerns and how often it repeats are left out:
    the three brokers race each other and ping repeats interleave with
    pongs in wall-clock order, not protocol order.  What remains --
    request before ack before responses before the ping phase before
    the decision, receive before respond -- is the same on any clock.
    """
    order: dict[str, list[tuple[str, str]]] = {}
    for event in timeline:
        detail = dict(event.detail)
        label = (event.event, detail.get("kind") or detail.get("phase") or detail.get("via", ""))
        seen = order.setdefault(event.node, [])
        if label not in seen:
            seen.append(label)
    return order


def span_set(timeline) -> set[tuple[str, str, str | None, str | None]]:
    """Who did what to whom, unordered: the victim is injected at and
    never heard from on both runtimes, or on neither."""
    return {
        (e.node, e.event, dict(e.detail).get("kind"), dict(e.detail).get("broker"))
        for e in timeline
    }


class Run(NamedTuple):
    rounds: list[dict]
    evidence: object
    orders: list[dict]
    spans: list[set]
    client_said: Counter  # plain event names the client emitted, with multiplicity
    phases: list[dict[str, float]]  # per round, the client's phase durations


def _finish(world, obs, outcomes) -> Run:
    rounds = [round_record(world.client.name, i, o) for i, o in enumerate(outcomes)]
    evidence = replace(
        bdn_evidence([world.bdn]),
        rounds=rounds,
        p99=percentile([r["total_time"] for r in rounds], 0.99),
    )
    timelines = [assemble(obs, o.request_uuid) for o in outcomes]
    return Run(
        rounds,
        evidence,
        [causal_order(t) for t in timelines],
        [span_set(t) for t in timelines],
        Counter(e.event for e in obs.log if e.node == world.client.name),
        [o.phases.durations() for o in outcomes],
    )


def run_sim(seed: int) -> Run:
    rt = create_runtime(
        "sim",
        latency=UniformLatencyModel(base=0.0005),
        loss=NoLoss(),
        rng=np.random.default_rng(seed + 1),
    )
    obs = Observability(clock=lambda: rt.now, keep_trace=True)
    world = star_world(rt, seed, obs)
    rt.sim.run_for(6.0)  # NTP settles
    world.advertise()
    rt.sim.run_for(0.5)
    outcomes = []
    for gap, victim in schedule(seed):
        rt.sim.run_for(gap)
        if victim is not None:
            world.brokers[victim].stop()
        outcomes.append(run_discovery_once(world.client, max_virtual_seconds=15.0))
    return _finish(world, obs, outcomes)


def run_aio(seed: int) -> Run:
    async def scenario() -> Run:
        rt = create_runtime("aio")
        obs = Observability(clock=lambda: rt.now, keep_trace=True)
        rt.attach_observability(obs)
        world = star_world(rt, seed, obs)
        try:
            await rt.ready()
            for node in world.nodes():
                node.ntp.sync_now()
            world.advertise()
            await asyncio.sleep(0.1)
            outcomes = []
            for gap, victim in schedule(seed):
                await asyncio.sleep(gap)
                if victim is not None:
                    world.brokers[victim].stop()
                done = asyncio.get_event_loop().create_future()
                world.client.discover(done.set_result)
                outcomes.append(await asyncio.wait_for(done, timeout=15.0))
        finally:
            await rt.aclose()
        assert not rt.errors, list(rt.errors)
        return _finish(world, obs, outcomes)

    return asyncio.run(scenario())


@pytest.fixture(scope="module")
def sim() -> Run:
    return run_sim(SEED)


@pytest.fixture(scope="module")
def aio() -> Run:
    return run_aio(SEED)


def names(breaches) -> list[tuple[str, str]]:
    return [(b.invariant, b.subject) for b in breaches]


class TestSameVerdict:
    def test_same_breach_list(self, sim, aio):
        bounds = dict(watermark=8, p99_bound=3.0)
        on_sim = verdict(sim.evidence, election_eps=SIM_ELECTION_EPS, **bounds)
        on_aio = verdict(aio.evidence, election_eps=LIVE_ELECTION_EPS, **bounds)
        # The reference BDN has no service model and no replication
        # group: both runtimes say so, neither passes it silently.
        assert names(on_sim) == names(on_aio) == [
            ("no_evidence", "bdn"),
            ("no_evidence", "bdn0"),
        ]
        assert [b.detail for b in on_sim] == [b.detail for b in on_aio]

    def test_same_breach_when_the_bound_is_breached(self, sim, aio):
        # A round cannot end before the client's 1 s collection window,
        # on any clock; a 0.5 s bound is breached on both or the
        # verdict depends on the runtime.
        bounds = dict(watermark=8, p99_bound=0.5)
        on_sim = verdict(sim.evidence, election_eps=SIM_ELECTION_EPS, **bounds)
        on_aio = verdict(aio.evidence, election_eps=LIVE_ELECTION_EPS, **bounds)
        assert names(on_sim) == names(on_aio)
        assert names(on_sim)[-1] == ("p99_bound", "load")

    def test_same_outcomes_round_by_round(self, sim, aio):
        keys = ("round", "success", "via", "transmissions")
        assert [[r[k] for k in keys] for r in sim.rounds] == [
            [r[k] for k in keys] for r in aio.rounds
        ]
        assert all(r["success"] for r in sim.rounds)


class TestSameCausalOrder:
    def test_span_order_per_request(self, sim, aio):
        assert sim.orders == aio.orders
        client = sim.orders[0]["client0"]
        assert client.index(("request_sent", "DiscoveryRequest")) < client.index(("recv", "Ack"))
        assert client.index(("response_received", "DiscoveryResponse")) < client.index(
            ("phase", "ping_target_set")
        )
        assert client[-1] == ("discover_done", "bdn")

    def test_same_spans_and_the_stopped_broker_is_silent_on_both(self, sim, aio):
        assert sim.spans == aio.spans
        victim = f"b{schedule(SEED)[1][1]}"
        whole, degraded = sim.spans
        assert ("bdn0", "inject", None, victim) in whole & degraded
        assert any(node == victim for node, *_ in whole)
        assert not any(node == victim for node, *_ in degraded)


class TestLiveTimerCost:
    @pytest.mark.parametrize("phase", ["process_responses", "final_decision"])
    def test_a_sub_tick_modelled_cost_does_not_wait_out_a_selector_tick(self, sim, aio, phase):
        # Each of these phases is one timer: the modelled selection cost
        # (0.2 ms + 20 us a candidate) and the modelled ranking cost
        # (0.1 ms).  Armed as ``call_later`` they waited >= 1 ms each for
        # the selector's rounded-up timeout.
        assert all(0 < round_[phase] < 0.0005 for round_ in sim.phases)  # as modelled
        # The quicker of the two rounds, not their median: two samples
        # have no middle, and a busy host can only add to one of them.
        assert min(round_[phase] for round_ in aio.phases) < 0.0005


class TestSamePlainEvents:
    def test_client_says_the_same_things_by_name(self, sim, aio):
        # Names with multiplicity, never times; only the client node, so
        # the fabric's per-datagram events (named by host, and emitted
        # by the live runtime alone here) stay out of it.
        assert sim.client_said == aio.client_said
        assert sim.client_said["discover_start"] == ROUNDS
        assert sim.client_said["discover_done"] == ROUNDS
        assert sim.client_said["request_sent"] == ROUNDS
