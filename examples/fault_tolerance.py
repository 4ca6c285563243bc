#!/usr/bin/env python3
"""Fault tolerance: discovery survives BDN failures and churn (section 7).

Walks the paper's full fallback ladder live:

1. a healthy discovery through the BDN;
2. every BDN dies -- the client multicasts into its realm and still
   finds a broker;
3. multicast is also unavailable (client isolated in its own realm) --
   the client re-issues the request to its *cached last target set*;
4. brokers churn (join/leave) underneath while discoveries keep
   succeeding.

Run with::

    python examples/fault_tolerance.py
"""

from __future__ import annotations

import numpy as np

from repro.core import BDNConfig, ClientConfig
from repro.discovery import (
    BDN,
    DiscoveryClient,
    DiscoveryResponder,
    FaultInjector,
    start_heartbeat,
)
from repro.experiments import run_discovery_once
from repro.substrate import BrokerNetwork, Topology
from repro.topology import ChurnProcess

LAB = "lab"


def build_world():
    net = BrokerNetwork(seed=13)
    for i in range(4):
        broker = net.add_broker(f"b{i}", site=f"site-{i}", realm=LAB)
        DiscoveryResponder(broker)
    net.apply_topology(Topology.MESH)
    bdn = BDN(
        "bdn", "bdn.example", net.network, np.random.default_rng(1),
        config=BDNConfig(injection="closest_farthest"), site="bdn-site",
    )
    bdn.start()
    for broker in net.broker_list():
        start_heartbeat(broker, (bdn.udp_endpoint,))
    net.settle(8.0)
    client = DiscoveryClient(
        "survivor", "survivor.example", net.network, np.random.default_rng(2),
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            response_timeout=1.5,
            max_responses=4,
            target_set_size=3,
            retransmit_interval=0.75,
            max_retransmits=1,
        ),
        site="client-site",
        realm=LAB,  # the client shares the lab's multicast realm
    )
    client.start()
    net.sim.run_for(6.0)
    return net, bdn, client


def report(step: str, outcome) -> None:
    status = "ok" if outcome.success else "FAILED"
    broker = outcome.selected.broker_id if outcome.selected else "-"
    print(f"{step:<44} [{status}] via={outcome.via:<10} broker={broker:<6} "
          f"time={outcome.total_time * 1000:7.1f} ms tx={outcome.transmissions}")


def main() -> None:
    net, bdn, client = build_world()
    injector = FaultInjector(net.network)

    print("Step 1: healthy discovery through the BDN")
    report("  discovery (BDN up)", run_discovery_once(client))

    print("\nStep 2: every BDN is down -> multicast fallback")
    injector.kill_bdn(bdn)
    net.sim.run_for(1.0)
    outcome = run_discovery_once(client)
    report("  discovery (BDN down, multicast works)", outcome)
    assert outcome.via == "multicast"

    print("\nStep 3: multicast gone too -> cached target set")
    # Isolate the client in its own realm: its multicast no longer
    # reaches the lab brokers (WAN multicast is administratively dead).
    client2 = DiscoveryClient(
        "survivor-2", "survivor2.example", net.network, np.random.default_rng(5),
        config=client.config, site="client-site", realm="elsewhere",
    )
    client2.start()
    net.sim.run_for(6.0)
    injector.revive_bdn(bdn)
    net.sim.run_for(6.0)
    warm = run_discovery_once(client2)  # healthy run seeds the cache
    report("  warm-up discovery (BDN briefly back)", warm)
    injector.kill_bdn(bdn)
    net.sim.run_for(1.0)
    outcome = run_discovery_once(client2)
    report("  discovery (BDN down, no multicast)", outcome)
    assert outcome.via == "cached"

    print("\nStep 4: broker churn underneath (BDN back up)")
    injector.revive_bdn(bdn)
    net.sim.run_for(6.0)
    churn = ChurnProcess(net, np.random.default_rng(9), mean_interval=3.0, min_alive=2)
    churn.start()
    successes = 0
    for k in range(6):
        outcome = run_discovery_once(client)
        report(f"  discovery under churn #{k}", outcome)
        if outcome.success:
            assert net.brokers[outcome.selected.broker_id].alive
            successes += 1
        net.sim.run_for(2.0)
    churn.stop()
    print(f"\nchurn events: {churn.stops} stops, {churn.restarts} restarts; "
          f"{successes}/6 discoveries succeeded")
    assert successes >= 5


if __name__ == "__main__":
    main()
