"""Soak test: everything at once, at a scale beyond the paper's five brokers.

A 16-broker scale-free network with churn, live pub/sub traffic,
content routing, a reliable stream, and three clients running repeated
discoveries.  The assertions are the global invariants that must
survive the chaos:

* every discovery terminates, and successful ones select live brokers;
* the reliable stream arrives complete and in order;
* no broker ever processes one event twice (dedup);
* the simulator never wedges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BDNConfig, ClientConfig
from repro.discovery.advertisement import start_heartbeat
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import run_discovery_once
from repro.simnet.loss import PerHopLoss
from repro.substrate.builder import BrokerNetwork
from repro.substrate.client import PubSubClient
from repro.substrate.reliable import (
    ReliableDeliveryService,
    ReliablePublisher,
    ReliableSubscriber,
)
from repro.topology.churn import ChurnProcess
from repro.topology.generators import random_waxman_sites, scale_free_broker_graph


@pytest.mark.parametrize("seed", [11, 29])
def test_soak_everything_at_once(seed):
    rng = np.random.default_rng(seed)
    n = 16
    latency = random_waxman_sites(n + 4, rng)
    net = BrokerNetwork(seed=seed, latency=latency, loss=PerHopLoss(0.0008))
    graph = scale_free_broker_graph(n, rng)
    for i, name in enumerate(sorted(graph.nodes)):
        broker = net.add_broker(name, site=latency.sites[i])
        DiscoveryResponder(broker)
    for a, b in graph.edges:
        net.link(a, b)
    # Stable core the churn process must never kill: the archive broker.
    archive_broker = net.brokers["b00"]
    service = ReliableDeliveryService(archive_broker, pattern="soak/**")

    bdn = BDN(
        "bdn", "bdn.host", net.network, np.random.default_rng(seed + 1),
        config=BDNConfig(injection="closest_farthest"), site=latency.sites[n],
    )
    bdn.start()
    for broker in net.broker_list():
        start_heartbeat(broker, (bdn.udp_endpoint,))
    net.settle(8.0)

    # Background pub/sub: a reliable stream across the network.
    pub_client = PubSubClient("pub", "pub.host", net.network, np.random.default_rng(2),
                              site=latency.sites[n + 1])
    sub_client = PubSubClient("sub", "sub.host", net.network, np.random.default_rng(3),
                              site=latency.sites[n + 2])
    pub_client.start()
    sub_client.start()
    pub_client.connect(archive_broker.client_endpoint)
    sub_client.connect(archive_broker.client_endpoint)
    net.sim.run_for(1.0)
    publisher = ReliablePublisher(pub_client)
    stream: list[bytes] = []
    ReliableSubscriber(sub_client, "soak/**", lambda ev: stream.append(ev.payload))
    net.sim.run_for(0.5)
    total_events = 30
    for k in range(total_events):
        net.sim.schedule(k * 0.4, publisher.publish, "soak/stream", f"m{k:03d}".encode())

    # Churn on everything except the archive broker's survival floor.
    churn = ChurnProcess(net, np.random.default_rng(seed + 4),
                         mean_interval=3.0, min_alive=8)
    churn.start()

    # Three clients discovering repeatedly while all of this runs.
    clients = []
    for c in range(3):
        client = DiscoveryClient(
            f"c{c}", f"c{c}.host", net.network, np.random.default_rng(seed + 10 + c),
            config=ClientConfig(
                bdn_endpoints=(bdn.udp_endpoint,),
                response_timeout=1.5,
                max_responses=8,
                target_set_size=3,
                retransmit_interval=0.75,
                max_retransmits=1,
            ),
            site=latency.sites[n + 3],
        )
        client.start()
        clients.append(client)
    net.sim.run_for(6.0)

    successes = 0
    attempts = 0
    for round_no in range(4):
        for client in clients:
            attempts += 1
            outcome = run_discovery_once(client)  # raises if wedged
            if outcome.success:
                successes += 1
                assert net.brokers[outcome.selected.broker_id].alive
            net.sim.run_for(1.0)
    churn.stop()
    net.sim.run_for(20.0)  # drain the stream + recoveries

    # Discoveries overwhelmingly succeed under churn + loss.
    assert successes >= attempts - 2
    assert churn.stops + churn.restarts > 0

    # The reliable stream survived whatever happened in between.
    assert stream == [f"m{k:03d}".encode() for k in range(total_events)]

    # Dedup invariant: no broker double-processed any event.
    for broker in net.broker_list():
        assert broker.events_routed <= broker.dedup.misses
