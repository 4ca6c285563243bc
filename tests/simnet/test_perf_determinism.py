"""Refactors and optimisations must be invisible to virtual-time results.

Four seeded worlds are run and each is pinned by two sha256 digests in
``golden_traces.json``:

* the **schedule** -- events processed, virtual end time, outcomes and
  selected brokers.  A refactor never moves it: a divergence there means
  the change altered scheduling or RNG draw order, a correctness bug,
  not a perf trade-off.  It moves only with a deliberate change to the
  traffic on the wire, explained by the exact-fabric parity of
  ``tests/event_parity.py --golden-worlds`` (jitter and loss off: the
  same outcomes and the same log bar the traffic removed) and logged
  with that change's measurements.  The BDN that stopped pinging a
  broker on every lease renewal moved ``discovery_star`` and
  ``discovery_linear`` this way.  So does a change to how many
  scheduler events the same traffic takes, shown the same way with
  every field but the event count unchanged: the client sending each
  ping repeat from one event instead of one per ping moved
  ``discovery_star``, ``discovery_linear`` and ``overload``.
* the **log** -- every kept ``(time, event, node, trace id, detail)``
  record.  A change to the event vocabulary regenerates this one, and
  the schedule digest beside it proves that was all it changed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
from pathlib import Path

import pytest

from repro.core.messages import Event
from repro.discovery.world import World
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.substrate.builder import BrokerNetwork, Topology


def _log(net) -> tuple:
    return tuple((r.time, r.event, r.node, r.trace_id, r.detail) for r in net.obs.log)


def _run_discovery_world(topology: str) -> tuple:
    ctor = {"star": ScenarioSpec.star, "linear": ScenarioSpec.linear}[topology]
    scenario = DiscoveryScenario(ctor(seed=5), keep_trace=True)
    outcomes = scenario.run(runs=3)
    sim = scenario.net.sim
    schedule = (
        sim.events_processed,
        sim.now,
        [(o.success, o.total_time, o.via, o.transmissions) for o in outcomes],
        [o.selected.broker_id for o in outcomes if o.selected is not None],
    )
    return schedule, _log(scenario.net), scenario


def _run_substrate_world() -> tuple:
    net = BrokerNetwork(seed=13, keep_trace=True)
    for i in range(4):
        net.add_broker(f"b{i}", site=f"site{i % 2}")
    net.apply_topology(Topology.MESH)
    net.settle()
    brokers = list(net.brokers.values())
    timers = []
    for i in range(120):
        # Publish through the fabric and churn cancelled timers, the
        # pattern that makes the scheduler reclaim dead entries.
        broker = brokers[i % len(brokers)]
        net.sim.schedule(
            0.01 * i,
            broker.publish_local,
            Event(
                uuid=f"ev-{i}",
                topic=f"t/{i % 5}",
                payload=b"x" * 32,
                source=broker.name,
                issued_at=0.0,
            ),
        )
        timers.append(net.sim.schedule(60.0 + i, lambda: None))
    for t in timers:
        t.cancel()
    net.sim.run_for(5.0)
    return (net.sim.events_processed, net.sim.now), _log(net), World(net)


def _run_overload_world(observe: bool = False) -> tuple:
    """An overload-protected world under a request storm.

    Exercises the service-time queues, admission shedding, the client's
    budgeted retries / breakers, and the storm injector.  Returns
    ``(schedule, log, sink, world)``.
    """
    import numpy as np

    from repro.core.config import BDNConfig, ClientConfig, RetryPolicyConfig, ServiceConfig
    from repro.discovery.faults import FaultInjector
    from repro.experiments.harness import run_discovery_once

    net = BrokerNetwork(seed=21, keep_trace=True, observe=observe)
    world = World(net, obs=net.obs)
    for i in range(3):
        world.add_broker(f"b{i}", site=f"s{i}", realm="lab")
    bdn = world.add_bdn(
        "d0",
        "d0.host",
        config=BDNConfig(
            injection="all",
            service=ServiceConfig(
                queue_capacity=8,
                service_time=0.5,
                service_times=(("BrokerAdvertisement", 0.001), ("PingResponse", 0.001)),
            ),
            admission_high_watermark=2,
            busy_retry_after=0.5,
        ),
        site="bdn-site",
        realm="lab",
        rng=np.random.default_rng(99),
    )
    world.start()
    world.advertise()
    net.settle(8.0)
    client = world.add_client(
        "c0",
        "c0.host",
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            response_timeout=2.0,
            retransmit_interval=2.0,
            retry_policy=RetryPolicyConfig(
                budget_capacity=2,
                budget_refill_per_sec=0.5,
                backoff_base=0.2,
                backoff_cap=0.5,
                breaker_failures=3,
                breaker_cooldown=1.0,
            ),
        ),
        site="client-site",
        realm="lab",
        rng=np.random.default_rng(77),
    )
    world.start()
    net.sim.run_for(4.0)
    injector = FaultInjector(net.network)
    injector.request_storm(bdn.udp_endpoint, rate=15.0, start=net.sim.now + 0.1, duration=3.0)
    net.sim.run_for(0.5)
    outcomes = [run_discovery_once(client) for _ in range(2)]
    net.sim.run_for(10.0)
    schedule = (
        net.sim.events_processed,
        net.sim.now,
        [(o.success, o.total_time, o.via, o.transmissions) for o in outcomes],
        (bdn.requests_shed, bdn.ingress.served, bdn.ingress.overflows),
        (client.busy_received, client.retries_denied, client.bdn_skips),
    )
    return schedule, _log(net), net.obs, world


# ----------------------------------------------------------------------
# Golden traces
# ----------------------------------------------------------------------

_GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"


_WORLDS = {
    "discovery_star": lambda: _run_discovery_world("star"),
    "discovery_linear": lambda: _run_discovery_world("linear"),
    "substrate": _run_substrate_world,
    "overload": lambda: operator.itemgetter(0, 1, 3)(_run_overload_world()),
}


def _digest(result: tuple) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


@functools.cache
def _built(world: str) -> tuple:
    """``(schedule digest, log digest, world)`` of one golden world, run
    once per session."""
    schedule, log, built = _WORLDS[world]()
    return _digest(schedule), _digest(log), built


def _digests(world: str) -> tuple[str, str]:
    return _built(world)[:2]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    with open(_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("topology", ["star", "linear"])
def test_discovery_traces_match_pre_refactor_golden(golden, topology):
    world = f"discovery_{topology}"
    assert _digests(world)[0] == golden[world]["schedule"]


def test_substrate_traces_match_pre_refactor_golden(golden):
    assert _digests("substrate")[0] == golden["substrate"]["schedule"]


def test_overload_traces_match_pre_refactor_golden(golden):
    assert _digests("overload")[0] == golden["overload"]["schedule"]


@pytest.mark.parametrize("world", sorted(_WORLDS))
def test_event_log_matches_golden(golden, world):
    assert _digests(world)[1] == golden[world]["log"]


@pytest.mark.parametrize("world", sorted(_WORLDS))
def test_closed_golden_world_leaves_nothing_pending(world):
    built = _built(world)[2]
    built.close()
    assert built.sim.pending == 0
    fired = built.sim.events_processed
    built.sim.run_for(100.0)
    assert built.sim.events_processed == fired


# ----------------------------------------------------------------------
# Observability must be bit-invisible when disabled
# ----------------------------------------------------------------------
#
# The flight recorder adds a wire trailer to traced messages and span
# emissions throughout the engines; with no Observability attached
# (every world above) none of that may perturb the golden digests.
# These tests interleave an *observed* world between disabled runs to
# prove the instrumentation also leaks no global state.


def _run_observed_world(topology: str = "star") -> tuple:
    scenario = DiscoveryScenario(
        {"star": ScenarioSpec.star, "linear": ScenarioSpec.linear}[topology](seed=5),
        observe=True,
    )
    outcome = scenario.run_one()
    return scenario, outcome


def test_observed_world_completes_and_records(golden):
    from repro.obs.timeline import assemble, complete_request_ids

    scenario, outcome = _run_observed_world()
    assert outcome.success
    obs = scenario.obs
    (trace_id,) = complete_request_ids(obs)
    assert trace_id == outcome.request_uuid
    assert assemble(obs, trace_id).is_complete()
    # ... and running it did not disturb the disabled-world digests.
    schedule, log, _ = _run_discovery_world("star")
    assert _digest(schedule) == golden["discovery_star"]["schedule"]
    assert _digest(log) == golden["discovery_star"]["log"]


def test_disabled_world_unchanged_after_observed_world(golden):
    before = _run_discovery_world("linear")[:2]
    _run_observed_world("linear")
    after = _run_discovery_world("linear")[:2]
    assert before == after
    assert _digest(after[0]) == golden["discovery_linear"]["schedule"]
