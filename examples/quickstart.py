#!/usr/bin/env python3
"""Quickstart: discover the nearest broker, connect, publish/subscribe.

The 60-second tour of the library:

1. build a small simulated WAN with three linked brokers;
2. stand up a Broker Discovery Node (BDN) and register the brokers;
3. run the paper's discovery protocol from a client node;
4. attach a pub/sub client to the discovered broker and exchange an
   event across the broker network.

Run with::

    python examples/quickstart.py
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
from repro.substrate import BrokerNetwork, PubSubClient, Topology


def main() -> None:
    # --- 1. A tiny WAN: three brokers in a star ---------------------------
    net = BrokerNetwork(seed=7)
    for name, site in [("hub", "chicago"), ("east", "newyork"), ("west", "denver")]:
        broker = net.add_broker(name, site=site)
        DiscoveryResponder(broker)  # teach the broker to answer discovery
    net.apply_topology(Topology.STAR)  # first broker ("hub") is the centre

    # --- 2. A BDN the brokers register with -------------------------------
    bdn = BDN(
        "bdn-main",
        "gridservicelocator.org",
        net.network,
        np.random.default_rng(1),
        config=BDNConfig(injection="closest_farthest"),
        site="chicago",
    )
    bdn.start()
    for broker in net.broker_list():
        start_heartbeat(broker, (bdn.udp_endpoint,))

    # Let TCP links settle and NTP clocks synchronise (3-5 s, as in the
    # paper), then give the BDN a beat to measure broker distances.
    net.settle(8.0)
    print("BDN registry:", bdn.store.broker_ids())
    print(
        "BDN distance table (ms):",
        {b: round(rtt * 1000, 2) for b, rtt in bdn.distance_table().items()},
    )

    # --- 3. Discovery from a new client node ------------------------------
    client = DiscoveryClient(
        "new-entity",
        "laptop.denver.example",
        net.network,
        np.random.default_rng(2),
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            response_timeout=2.0,
            max_responses=3,
            target_set_size=2,
        ),
        site="denver",
    )
    client.start()
    net.sim.run_for(6.0)  # client's own NTP warm-up

    outcome = run_discovery_once(client)
    assert outcome.success
    print(f"\nDiscovered broker: {outcome.selected.broker_id}")
    print(f"  via:            {outcome.via}")
    print(f"  total time:     {outcome.total_time * 1000:.1f} ms")
    print(f"  measured RTTs:  "
          f"{ {b: round(r * 1000, 2) for b, r in outcome.ping_rtts.items()} }")
    print("  phase breakdown:")
    for phase, pct in sorted(outcome.phases.percentages().items(), key=lambda kv: -kv[1]):
        print(f"    {phase:<26} {pct:5.1f}%")

    # --- 4. Use the discovered broker for pub/sub -------------------------
    subscriber = PubSubClient(
        "subscriber", "laptop2.denver.example", net.network,
        np.random.default_rng(3), site="denver",
    )
    subscriber.start()
    subscriber.connect(outcome.selected.tcp_endpoint)

    publisher = PubSubClient(
        "publisher", "svc.newyork.example", net.network,
        np.random.default_rng(4), site="newyork",
    )
    publisher.start()
    publisher.connect(net.brokers["east"].client_endpoint)
    net.sim.run_for(1.0)

    received = []
    subscriber.subscribe("jobs/*/status", received.append)
    net.sim.run_for(0.5)
    publisher.publish("jobs/42/status", b"completed")
    net.sim.run_for(2.0)

    assert received, "event should have crossed the broker network"
    event = received[0]
    print(f"\nEvent delivered across the network: topic={event.topic!r} "
          f"payload={event.payload!r} from={event.source!r}")


if __name__ == "__main__":
    main()
