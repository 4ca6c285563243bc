"""One fact, one event, watched or not.

A plain fact is counted whether or not the world observes it, so every
``obs.event.<fact>`` counter must read the same in an observed run and
an unobserved run of one seeded world.  A fact about a traced request
carries that request's trace id, so in the observed run it is also in
the emitting node's ring: once per traced occurrence, and nowhere when
its request is untraced (a storm's requests carry no trace flag).

A sink that keeps no details (no log, no rings) lets the fabric count a
delivery without building it, so a counting-only run of a world must
read every counter a logging run of it reads.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.discovery.chaos as chaos
from repro.obs.events import EVENTS
from repro.substrate.builder import BrokerNetwork
from tests.simnet.test_perf_determinism import _run_overload_world

#: The facts that used to be said twice, once as a causal step.
FOLDED = frozenset(
    {
        "request_sent",
        "request_multicast",
        "request_cached_targets",
        "response_received",
        "bdn_busy_received",
        "discover_done",
        "discover_failed",
        "bdn_busy",
        "bdn_catchup_refused",
        "bdn_cold_restart",
        "discovery_response_suppressed",
        "discovery_response",
        "election_won",
    }
)


def _overload(observe: bool):
    return _run_overload_world(observe)[2]


def _replicated(observe: bool):
    # Seed 29 cold-restarts members and re-elects leaders.  Observing
    # adds a trace trailer to the wire, which moves each delivery by
    # microseconds; at this seed no race turns on them.
    nets = []

    def network(*args, **kwargs):
        nets.append(BrokerNetwork(*args, observe=observe, keep_trace=True, **kwargs))
        return nets[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaos, "BrokerNetwork", network)
        assert chaos.run_chaos(29, replicated=True).ok
    return nets[0].obs


_REQUEST = {"request_sent", "response_received", "discovery_response", "discover_done"}
WORLDS = {
    "overload": (_overload, _REQUEST | {"bdn_busy", "bdn_busy_received"}),
    "replicated": (_replicated, _REQUEST | {"bdn_cold_restart", "election_won"}),
}


@pytest.fixture(scope="module", params=sorted(WORLDS))
def world(request):
    run, expected = WORLDS[request.param]
    return run(False), run(True), expected


def _plain_counts(obs) -> dict[str, int]:
    return {name: obs.count(name) for name, causal in EVENTS.items() if not causal}


def test_every_fact_is_counted_alike_watched_or_not(world):
    unobserved, observed, _ = world
    assert not unobserved.observing and observed.observing
    assert _plain_counts(unobserved) == _plain_counts(observed)


def test_a_watched_fact_is_on_its_requests_timeline(world):
    _, observed, expected = world
    assert not any(ring.dropped for ring in observed.recorders.values())
    ringed = Counter(
        e.event for ring in observed.recorders.values() for e in ring.snapshot() if e.event in FOLDED
    )
    traced = Counter(e.event for e in observed.log if e.event in FOLDED and e.trace_id)
    assert ringed == traced
    assert expected <= set(ringed)
    # ... and no fact about an untraced request is.
    untraced = sum(1 for e in observed.log if e.event in FOLDED and not e.trace_id)
    assert sum(ringed.values()) + untraced == sum(observed.count(name) for name in FOLDED)


def _chaos_net(keep_trace: bool) -> BrokerNetwork:
    nets = []

    def network(*args, **kwargs):
        nets.append(BrokerNetwork(*args, keep_trace=keep_trace, **kwargs))
        return nets[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaos, "BrokerNetwork", network)
        assert chaos.run_chaos(29).ok
    return nets[0]


def _event_counters(obs) -> dict[str, int]:
    return {m.name: m.value for m in obs.registry.metrics() if m.name.startswith("obs.event.")}


def test_a_counting_only_sink_counts_every_fact():
    counting, logging = _chaos_net(keep_trace=False), _chaos_net(keep_trace=True)
    assert not counting.obs.detailed and logging.obs.detailed
    assert _event_counters(counting.obs) == _event_counters(logging.obs)
    delivered = counting.network.datagrams_delivered
    assert counting.obs.count("udp_deliver") == delivered > 0
