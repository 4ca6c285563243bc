"""Micro-benchmarks of the substrate's hot paths.

Not a paper figure -- these keep the library honest about the costs the
simulation charges implicitly: topic-trie matching under large
subscription tables, wire codec throughput, the dedup cache, the raw
event loop, and a broker-mesh soak.  Regressions here silently inflate
every simulated experiment above.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import record_report
from repro.core.codec import decode_message, encode_message
from repro.core.config import Endpoint
from repro.core.dedup import DedupCache
from repro.core.messages import DiscoveryResponse, PingRequest
from repro.core.metrics import UsageMetrics
from repro.simnet.simulator import Simulator
from repro.substrate.builder import BrokerNetwork, Topology
from repro.substrate.client import PubSubClient
from repro.substrate.topics import TopicTrie

SEGMENTS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")


def _random_pattern(rng: np.random.Generator) -> str:
    depth = int(rng.integers(1, 5))
    parts = []
    for i in range(depth):
        roll = rng.random()
        if roll < 0.15:
            parts.append("*")
        elif roll < 0.25 and i == depth - 1:
            parts.append("**")
        else:
            parts.append(SEGMENTS[int(rng.integers(len(SEGMENTS)))])
    return "/".join(parts)


def test_micro_trie_match_10k_subscriptions(benchmark):
    rng = np.random.default_rng(0)
    trie = TopicTrie()
    for i in range(10_000):
        trie.add(_random_pattern(rng), f"s{i % 500}")
    topics = [
        "/".join(SEGMENTS[int(rng.integers(len(SEGMENTS)))] for _ in range(3))
        for _ in range(100)
    ]

    def match_all():
        return sum(len(trie.match(t)) for t in topics)

    total = benchmark(match_all)
    assert total > 0  # the table is dense enough that something matches


def test_micro_codec_roundtrip(benchmark):
    response = DiscoveryResponse(
        request_uuid="0123456789abcdef0123456789abcdef",
        broker_id="broker-indianapolis",
        hostname="complexity.ucs.indiana.edu",
        transports=(("tcp", 5045), ("udp", 5046)),
        issued_at=1234.5678,
        metrics=UsageMetrics(400 << 20, 512 << 20, 3, 17, 0.25),
    )

    def roundtrip():
        return decode_message(encode_message(response))

    assert benchmark(roundtrip) == response


def test_micro_dedup_cache(benchmark):
    cache = DedupCache(capacity=1000)
    keys = [(f"uuid-{i % 1500}", 0) for i in range(10_000)]

    def churn():
        hits = 0
        for key in keys:
            hits += cache.seen(key)
        return hits

    benchmark(churn)


def test_micro_simulator_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(run_10k_events) == 10_000


def _soak_world(publishes=3000, spacing=0.005, seed=7):
    """Mesh flood + UDP pings + armed-then-cancelled 30 s timers (lease/retry churn)."""
    net = BrokerNetwork(seed=seed)
    for i in range(6):
        net.add_broker(f"b{i}", site=f"site{i % 3}")
    net.apply_topology(Topology.MESH)
    brokers = net.broker_list()
    clients = []
    for i in range(12):
        rng = np.random.default_rng(seed * 100_003 + i)
        client = PubSubClient(f"c{i}", f"c{i}.soak", net.network, rng, site=f"site{i % 3}")
        client.start()
        client.subscribe(f"soak/{i % 4}/**")
        client.connect(brokers[i % 6].client_endpoint)
        clients.append(client)
    source = Endpoint("c0.soak", 9_999)
    net.network.bind_udp(source, lambda message, src: None)
    net.settle(8.0)
    timer = [net.sim.schedule(30.0, lambda: None)]

    def tick(i):
        if clients[i % 12].connected:
            clients[i % 12].publish(f"soak/{i % 4}/x{i % 7}", payload=b"p" * 64)
        ping = PingRequest(f"soak-ping-{i}", net.sim.now, source.host, source.port)
        net.network.send_udp(source, brokers[i % 6].udp_endpoint, ping)
        timer[0].cancel()
        timer[0] = net.sim.schedule(30.0, lambda: None)

    first = net.sim.now + 0.5
    for i in range(publishes):
        net.sim.schedule_at(first + i * spacing, tick, i)
    net.sim.call_every(0.25, lambda: net.sim.pending)  # a supervisor polling
    return (net.sim, first + publishes * spacing + 1.0), {}


def test_micro_substrate_soak(benchmark):
    def run(sim, horizon):
        before = sim.events_processed
        sim.run(until=horizon)
        return sim.events_processed - before

    events = benchmark.pedantic(run, setup=_soak_world, rounds=3, iterations=1)
    assert events > 3000  # every tick fired and flooded
    if benchmark.stats:  # None under --benchmark-disable
        rate = events / benchmark.stats.stats.min
        record_report("micro_soak", f"substrate soak (ungated): {rate:,.0f} events/s")
