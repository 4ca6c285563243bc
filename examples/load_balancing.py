#!/usr/bin/env python3
"""Dynamic load balancing: a fresh broker absorbs new clients.

Paper, section 8, advantage 3: *"Since broker discovery responses
include the usage metric, a newly added broker within a cluster would
be preferentially utilized by the discovery algorithms."*

This example builds a two-broker cluster, pours client connections onto
it, then adds a third (idle) broker to the same cluster -- and shows a
stream of joining entities being steered to the newcomer until the load
evens out.

Run with::

    python examples/load_balancing.py
"""

from __future__ import annotations

import numpy as np

from repro.core import BDNConfig, ClientConfig
from repro.discovery import (
    BDN,
    DiscoveryClient,
    DiscoveryResponder,
    start_heartbeat,
)
from repro.experiments import run_discovery_once
from repro.simnet.latency import UniformLatencyModel
from repro.substrate import BrokerNetwork, PubSubClient

CLUSTER = "datacenter"
INITIAL_LOAD = 25
JOINERS = 12


def main() -> None:
    net = BrokerNetwork(
        seed=3, latency=UniformLatencyModel(base=0.015, jitter_fraction=0.05)
    )
    bdn = BDN(
        "bdn", "bdn.example", net.network, np.random.default_rng(1),
        config=BDNConfig(injection="all"), site="bdn-site",
    )
    bdn.start()

    def add_broker(name: str):
        broker = net.add_broker(name, site=CLUSTER)
        DiscoveryResponder(broker)
        start_heartbeat(broker, (bdn.udp_endpoint,))
        return broker

    old_a = add_broker("old-a")
    old_b = add_broker("old-b")
    net.settle(8.0)

    # Load the two existing brokers with long-lived client connections.
    for i, broker in enumerate((old_a, old_b)):
        for j in range(INITIAL_LOAD):
            c = PubSubClient(
                f"legacy-{i}-{j}", f"legacy{i}x{j}.example", net.network,
                np.random.default_rng(100 + i * INITIAL_LOAD + j), site=f"edge-{i}-{j}",
            )
            c.start()
            c.connect(broker.client_endpoint)
    net.sim.run_for(2.0)
    print("Cluster before the new broker joins:")
    for broker in net.broker_list():
        print(f"  {broker.name:<8} connections={broker.client_count}")

    # The operator adds one fresh broker to relieve the cluster.
    fresh = add_broker("fresh")
    net.sim.run_for(6.0)
    print("\n'fresh' joined the cluster and registered with the BDN.\n")

    # A stream of new entities arrives; each discovers, then connects.
    counts = {b.name: 0 for b in net.broker_list()}
    for k in range(JOINERS):
        discoverer = DiscoveryClient(
            f"joiner-{k}", f"joiner{k}.example", net.network,
            np.random.default_rng(500 + k),
            config=ClientConfig(
                bdn_endpoints=(bdn.udp_endpoint,),
                response_timeout=1.5,
                max_responses=3,
                target_set_size=2,
            ),
            site=CLUSTER,
        )
        discoverer.start()
        net.sim.run_for(6.0)
        outcome = run_discovery_once(discoverer)
        assert outcome.success
        chosen = outcome.selected
        counts[chosen.broker_id] += 1
        # Actually connect, so the usage metrics evolve run over run.
        attach = PubSubClient(
            f"joiner-conn-{k}", f"jc{k}.example", net.network,
            np.random.default_rng(900 + k), site=CLUSTER,
        )
        attach.start()
        attach.connect(chosen.tcp_endpoint)
        net.sim.run_for(1.0)
        print(f"joiner-{k:02d} -> {chosen.broker_id:<8} "
              f"(weights seen: "
              f"{ {c.broker_id: round(c.weight, 1) for c in outcome.target_set} })")

    print("\nWhere the joiners landed:", counts)
    print("Final connection counts:")
    for broker in net.broker_list():
        print(f"  {broker.name:<8} connections={broker.client_count}")
    assert counts["fresh"] >= JOINERS // 2, "the fresh broker should absorb most joiners"


if __name__ == "__main__":
    main()
