"""A request flood costs what its audience costs.

A responder wraps a UDP-borne request in a control event and floods it
only if someone other than itself can hear: a peer the routing strategy
forwards to, a subscribed client, another control handler.  With nobody
there it records the event-level dedup mark and nothing else; either
way it never hears its own flood.  The choice is read from the broker's
links, clients and handlers, so each test below changes one of those and
watches the next request.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.discovery.responder as responder_module
from repro.core.codec import encode_message
from repro.core.config import BDNConfig, Endpoint
from repro.core.messages import DiscoveryRequest, DiscoveryResponse, Event
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.faults import FaultInjector
from repro.discovery.responder import REQUEST_TOPIC, DiscoveryResponder
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.substrate.broker import LINK_RETRY_INTERVAL
from repro.substrate.builder import BrokerNetwork
from repro.substrate.content_routing import ContentRouting
from repro.substrate.routing import FloodRouting, SpanningTreeRouting
from tests.discovery.test_request_path_garbage import assert_no_cyclic_garbage, collector_off
from tests.simnet.test_perf_determinism import _log as event_log
from tests.substrate.test_client import attach

REQUESTER = Endpoint("requester.host", 7500)


def make_request(uuid: str, attempt: int = 0, issued_at: float = 0.0) -> DiscoveryRequest:
    return DiscoveryRequest(
        uuid=uuid,
        requester_host=REQUESTER.host,
        requester_port=REQUESTER.port,
        issued_at=issued_at,
        attempt=attempt,
    )


class Flood:
    """One broker ``b0`` with a responder, a requester socket, and a
    count of what the responder module encodes."""

    def __init__(self, monkeypatch) -> None:
        self.net = BrokerNetwork(seed=3)
        self.responders: dict[str, DiscoveryResponder] = {}
        self.broker = self.add("b0")
        self.responder = self.responders["b0"]
        self.net.network.register_host(REQUESTER.host, site="req-site")
        self.responses: list[DiscoveryResponse] = []
        self.net.network.bind_udp(REQUESTER, lambda m, s: self.responses.append(m))
        self.encoded: list[str] = []

        def counting(message):
            self.encoded.append(message.uuid)
            return encode_message(message)

        monkeypatch.setattr(responder_module, "encode_message", counting)
        self.net.settle()

    def add(self, name: str):
        broker = self.net.add_broker(name, site=f"site-{name}")
        self.responders[name] = DiscoveryResponder(broker)
        return broker

    def request(self, uuid: str, attempt: int = 0) -> None:
        """One UDP-borne request at ``b0``, run to quiescence."""
        self.net.network.send_udp(
            REQUESTER, self.broker.udp_endpoint, make_request(uuid, attempt, self.net.sim.now)
        )
        self.net.sim.run_for(1.0)

    def has_audience(self) -> bool:
        return self.broker.has_audience(REQUEST_TOPIC, self.responder._control_handler)

    def assert_unheard(self, uuid: str) -> None:
        """``uuid`` was answered and marked, and nothing was flooded."""
        assert not self.has_audience()
        before = (self.broker.events_routed, self.broker.events_forwarded)
        self.request(uuid)
        assert uuid not in self.encoded
        assert f"{uuid}#0" in self.broker.dedup
        assert self.broker.events_routed == before[0] + 1
        assert self.broker.events_forwarded == before[1]
        self.assert_publisher_deaf()

    def assert_flooded_once(self, uuid: str) -> None:
        assert self.has_audience()
        routed = self.broker.events_routed
        self.request(uuid)
        assert self.encoded.count(uuid) == 1
        assert self.broker.events_routed == routed + 1
        self.assert_publisher_deaf()

    def assert_publisher_deaf(self) -> None:
        assert self.responder.dedup.hits == 0
        assert self.broker.duplicates_suppressed == 0
        assert self.responder.requests_processed == self.responder.responses_sent
        assert Counter(r.broker_id for r in self.responses)["b0"] == self.responder.responses_sent


def request_event(uuid: str, attempt: int = 0) -> Event:
    return Event(
        uuid=f"{uuid}#{attempt}",
        topic=REQUEST_TOPIC,
        payload=encode_message(make_request(uuid, attempt).forwarded()),
        source="replayer",
        issued_at=0.0,
    )


# ----------------------------------------------------------------------
# Nobody to flood to
# ----------------------------------------------------------------------


def test_unlinked_broker_marks_each_request_and_floods_nothing(monkeypatch):
    n = 60
    world = Flood(monkeypatch)
    broker, responder = world.broker, world.responder
    with collector_off():
        for i in range(n):
            world.request(f"req-{i}", attempt=i % 2)
        assert responder.requests_processed == n
        assert len(world.responses) == responder.responses_sent == n
        assert responder.dedup.hits == 0
        assert broker.events_routed == n
        assert broker.duplicates_suppressed == 0
        assert all(f"req-{i}#{i % 2}" in broker.dedup for i in range(n))
        assert world.encoded == []
        assert_no_cyclic_garbage()

    # A peer that links up afterwards and replays one of those events
    # finds it already marked: suppressed at event level, not re-flooded,
    # not answered twice.
    late = world.add("late")
    world.net.link("late", "b0")
    world.net.settle()
    assert broker.peers == {"late"}
    late.publish_local(request_event("req-7", attempt=1))
    world.net.sim.run_for(1.0)
    assert broker.duplicates_suppressed == 1
    assert broker.events_routed == n
    assert broker.events_forwarded == 0
    assert responder.requests_processed == n
    assert world.responders["late"].requests_processed == 1


def test_retransmission_is_marked_under_its_own_key(monkeypatch):
    world = Flood(monkeypatch)
    world.request("req", attempt=0)
    world.request("req", attempt=0)  # a network duplicate: request-level dedup
    world.request("req", attempt=1)
    assert world.responder.requests_processed == 2
    assert world.responder.dedup.hits == 1
    assert world.broker.events_routed == 2
    assert "req#0" in world.broker.dedup and "req#1" in world.broker.dedup
    assert world.encoded == []


# ----------------------------------------------------------------------
# The answer flips with what the broker can observe
# ----------------------------------------------------------------------


def test_link_up_then_down(monkeypatch):
    world = Flood(monkeypatch)
    world.assert_unheard("before")
    b1 = world.add("b1")
    world.broker.link_to(b1, persistent=True)
    world.net.settle()
    world.assert_flooded_once("linked")
    assert world.responders["b1"].requests_processed == 1
    assert b1.events_routed == 1

    injector = FaultInjector(world.net.network)
    injector.fail_link(world.broker.host, b1.host)
    world.net.sim.run_for(0.5)
    assert world.broker.peers == frozenset()
    world.assert_unheard("cut")
    assert world.responders["b1"].requests_processed == 1

    injector.heal_link(world.broker.host, b1.host)
    world.net.sim.run_for(LINK_RETRY_INTERVAL + 1.0)
    assert world.broker.peers == {"b1"}
    world.assert_flooded_once("healed")
    assert world.responders["b1"].requests_processed == 2
    # The late link did not re-flood what was marked while it was down.
    assert b1.events_routed == 2


def test_broker_stop_and_restart(monkeypatch):
    world = Flood(monkeypatch)
    b1 = world.add("b1")
    world.broker.link_to(b1, persistent=True)
    world.net.settle()
    world.assert_flooded_once("up")

    injector = FaultInjector(world.net.network)
    injector.kill_broker(world.broker)
    assert not world.has_audience()  # a stopped broker has no links left
    injector.revive_broker(world.broker)
    # Alive again, link not yet re-established: nobody to flood to.
    world.assert_unheard("restarting")
    world.net.sim.run_for(LINK_RETRY_INTERVAL + 1.0)
    assert world.broker.peers == {"b1"}
    world.assert_flooded_once("restarted")
    assert world.responders["b1"].requests_processed == 2
    assert b1.events_routed == 2


def test_client_subscribe_then_unsubscribe(monkeypatch):
    world = Flood(monkeypatch)
    client = attach(world.net, "alice", "b0")
    world.assert_unheard("connected-only")
    client.subscribe(REQUEST_TOPIC)
    world.net.sim.run_for(1.0)
    world.assert_flooded_once("subscribed")
    assert [ev.uuid for ev in client.received] == ["subscribed#0"]
    assert world.broker.events_delivered == 1
    client.unsubscribe(REQUEST_TOPIC)
    world.net.sim.run_for(1.0)
    world.assert_unheard("unsubscribed")
    client.subscribe("Services/**")
    world.net.sim.run_for(1.0)
    world.assert_flooded_once("wildcard")
    client.disconnect()
    world.net.sim.run_for(1.0)
    world.assert_unheard("gone")
    assert len(client.received) == 2


@pytest.mark.parametrize("pattern", ["Services/**", "**", "Services/*/Request", REQUEST_TOPIC])
def test_second_control_handler(monkeypatch, pattern):
    world = Flood(monkeypatch)
    world.assert_unheard("alone")
    world.broker.add_control_handler("Services/BrokerDiscovery/Response", lambda ev, peer: None)
    world.broker.add_control_handler("Other/**", lambda ev, peer: None)
    world.assert_unheard("still-alone")  # handlers that do not match are no audience
    heard: list[tuple[str, str | None]] = []
    world.broker.add_control_handler(pattern, lambda ev, peer: heard.append((ev.uuid, peer)))
    world.assert_flooded_once("overheard")
    assert heard == [("overheard#0", None)]


def test_routing_strategy_swap_and_in_place_edit(monkeypatch):
    world = Flood(monkeypatch)
    b1 = world.add("b1")
    world.net.link("b0", "b1")
    world.net.settle()
    world.assert_flooded_once("flood")
    tree = SpanningTreeRouting()
    world.broker.routing = tree  # linked, but no tree edge to forward on
    world.assert_unheard("treeless")
    assert b1.events_routed == 1
    tree.add_edge("b0", "b1")  # same strategy object, edited in place
    world.assert_flooded_once("tree")
    assert b1.events_routed == 2
    world.broker.routing = SpanningTreeRouting()
    world.assert_unheard("swapped-out")
    world.broker.routing = FloodRouting()
    world.assert_flooded_once("flood-again")
    assert world.responders["b1"].requests_processed == 3


def test_content_routing_interest_changes_under_a_fixed_link_set(monkeypatch):
    world = Flood(monkeypatch)
    b1 = world.add("b1")
    world.net.link("b0", "b1")
    world.net.settle()
    strategy = ContentRouting()
    strategy.flood_patterns = ()  # discovery requests travel on interest only
    strategy.add_edge("b0", "b1")
    world.broker.routing = b1.routing = strategy
    peers = world.broker.peers
    world.assert_unheard("no-interest")

    client = attach(world.net, "bob", "b1")
    client.subscribe(REQUEST_TOPIC)
    world.net.sim.run_for(2.0)
    assert ("b1", REQUEST_TOPIC) in strategy.link_interests("b0", "b1")
    assert world.broker.peers is peers  # the link set (and its memo) never changed
    world.assert_flooded_once("interest")
    assert [ev.uuid for ev in client.received] == ["interest#0"]
    assert world.responders["b1"].requests_processed == 1

    client.unsubscribe(REQUEST_TOPIC)
    world.net.sim.run_for(2.0)
    world.assert_unheard("withdrawn")
    assert b1.events_routed == 1


# ----------------------------------------------------------------------
# Differential: the same world with the full flood path forced
# ----------------------------------------------------------------------
#
# There is no switch for the short path, so the reference run gets a
# second control handler on every broker -- an audience -- which makes
# every propagation encode, wrap and route as it always did.  It only
# counts, so everything the protocol does must come out identical.


class Arrivals:
    """Per broker, since the last :meth:`take`: requests that came over
    UDP and control events that came from a peer (the latter only where
    ``overhear`` was installed)."""

    def __init__(self, monkeypatch) -> None:
        self.udp: Counter[str] = Counter()
        self.from_peer: Counter[str] = Counter()
        original = DiscoveryResponder._on_udp_request
        arrivals = self

        def on_udp_request(self, request, src):
            arrivals.udp[self.broker.name] += 1
            original(self, request, src)

        monkeypatch.setattr(DiscoveryResponder, "_on_udp_request", on_udp_request)

    def overhear(self, brokers) -> None:
        def count(name: str):
            def handler(event, from_peer) -> None:
                if from_peer is not None:
                    self.from_peer[name] += 1

            return handler

        for broker in brokers:
            broker.add_control_handler(REQUEST_TOPIC, count(broker.name))

    def take(self) -> tuple[dict[str, int], dict[str, int]]:
        taken = dict(self.udp), dict(self.from_peer)
        self.udp.clear()
        self.from_peer.clear()
        return taken


def responder_counts(responders: dict[str, DiscoveryResponder]) -> dict:
    return {
        name: (r.requests_processed, r.responses_sent, r.dedup.hits, r.broker.events_routed)
        for name, r in responders.items()
    }


def run_scenario(topology: str, forced: bool, arrivals: Arrivals):
    spec = {"star": ScenarioSpec.star, "linear": ScenarioSpec.linear}[topology](seed=11)
    scenario = DiscoveryScenario(spec, keep_trace=True)
    if forced:
        arrivals.overhear(scenario.brokers)
    outcomes = scenario.run(runs=4)
    sim = scenario.net.sim
    udp, from_peer = arrivals.take()
    result = (
        event_log(scenario.net),
        sim.events_processed,
        sim.now,
        [(o.success, o.total_time, o.via, o.transmissions, o.request_uuid) for o in outcomes],
        [sorted(c.broker_id for c in o.candidates) for o in outcomes],
        responder_counts(scenario.responders),
        udp,
    )
    return result, scenario, from_peer


@pytest.mark.parametrize("topology", ["star", "linear"])
def test_paper_scenarios_identical_with_the_full_flood_forced(monkeypatch, topology):
    arrivals = Arrivals(monkeypatch)
    plain, scenario, _ = run_scenario(topology, False, arrivals)
    forced, _, from_peer = run_scenario(topology, True, arrivals)
    assert plain == forced
    assert all(success for success, *_ in plain[3])
    udp = plain[6]
    # Every request-level duplicate is one the network delivered: a
    # second arrival (UDP after topic) of a key already processed.
    for name, responder in scenario.responders.items():
        delivered = udp.get(name, 0) + from_peer.get(name, 0)
        assert responder.dedup.hits == delivered - responder.requests_processed, name
    if topology == "linear":
        # Only the chain head hears the BDN; it floods down a chain that
        # sends nothing back, so no responder hears anything twice.
        head = scenario.responders[scenario.brokers[0].name]
        assert udp == {head.broker.name: head.requests_processed}
        assert head.requests_processed >= 4
        assert all(r.dedup.hits == 0 for r in scenario.responders.values())


def run_flash_crowd(forced: bool, arrivals: Arrivals, clients: int, n_brokers: int = 8):
    """The ``bench_mega`` shape, small: lean one-socket requesters at a
    sharded ``closest_farthest`` BDN in front of unlinked brokers."""
    net = BrokerNetwork(
        seed=17,
        latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
        loss=NoLoss(),
        keep_trace=True,
    )
    responders = {}
    for i in range(n_brokers):
        broker = net.add_broker(f"b{i}", site=f"site{i % 4}")
        responders[broker.name] = DiscoveryResponder(broker)
    if forced:
        arrivals.overhear(net.broker_list())
    bdn = BDN(
        "bdn0",
        "bdn0.mega",
        net.network,
        np.random.default_rng(18),
        config=BDNConfig(injection="closest_farthest", shards=16),
        site="site0",
        obs=net.obs,
    )
    bdn.start()
    for broker in net.broker_list():
        advertise_direct(broker, bdn.udp_endpoint)
    net.settle(8.0)
    hosts = [f"ch{i}.mega" for i in range(4)]
    for i, host in enumerate(hosts):
        net.network.register_host(host, site=f"site{i % 4}")
    responses: Counter[tuple[str, str]] = Counter()

    def on_udp(message, src) -> None:
        if type(message) is DiscoveryResponse:
            responses[(message.request_uuid, message.broker_id)] += 1

    t0 = net.sim.now + 0.5
    times = np.sort(np.random.default_rng(19).uniform(0.0, 1.0, size=clients))
    for j in range(clients):
        endpoint = Endpoint(hosts[j % len(hosts)], 20_000 + j)
        request = DiscoveryRequest(
            uuid=f"lean-{j:04d}",
            requester_host=endpoint.host,
            requester_port=endpoint.port,
            transports=("udp",),
            issued_at=0.0,
        )
        net.network.bind_udp(endpoint, on_udp)
        net.sim.schedule_at(
            t0 + float(times[j]), net.network.send_udp, endpoint, bdn.udp_endpoint, request
        )
    net.sim.run(until=t0 + 3.0)
    result = (
        event_log(net),
        net.sim.events_processed,
        net.sim.now,
        responses,
        responder_counts(responders),
        arrivals.take()[0],
        (bdn.requests_disseminated, bdn.dedup.hits),
    )
    return result, responders


def test_flash_crowd_identical_with_the_full_flood_forced(monkeypatch):
    clients = 240
    encoded: list[str] = []
    monkeypatch.setattr(
        responder_module,
        "encode_message",
        lambda message: encoded.append(message.uuid) or encode_message(message),
    )
    arrivals = Arrivals(monkeypatch)
    plain, responders = run_flash_crowd(False, arrivals, clients)
    assert encoded == []  # no audience on any propagation
    forced, _ = run_flash_crowd(True, arrivals, clients)
    assert plain == forced
    assert len(encoded) == sum(r.requests_processed for r in responders.values())
    responses = plain[3]
    assert len({uuid for uuid, _ in responses}) == clients  # every client answered
    assert set(responses.values()) == {1}
    assert sum(r.requests_processed for r in responders.values()) == 2 * clients
    assert all(r.dedup.hits == 0 for r in responders.values())
    assert all(r.broker.duplicates_suppressed == 0 for r in responders.values())
