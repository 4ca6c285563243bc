#!/usr/bin/env python3
"""The substrate services around discovery: a data-grid workload.

The paper's introduction describes NaradaBrokering's services --
"reliable delivery, replays, (de)compression of large payloads,
fragmentation and coalescing of large datasets" -- of which this
library implements the two the evaluation touches: reliable delivery
with replays, and content routing.  This example runs a realistic
data-grid session on top of broker discovery:

1. a compute service discovers its nearest broker and attaches;
2. it streams job-status events **reliably** (sequence-numbered, with a
   stable-storage archive) while a consumer disconnects and reconnects
   -- nothing is lost, order is preserved;
3. the network runs **content routing**, so brokers without subscribers
   never carry the data stream.

Run with::

    python examples/substrate_services.py
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
from repro.substrate import (
    BrokerNetwork,
    PubSubClient,
    ReliableDeliveryService,
    ReliablePublisher,
    ReliableSubscriber,
    Topology,
    install_content_routing,
)


def main() -> None:
    # --- the broker network -------------------------------------------------
    net = BrokerNetwork(seed=21)
    for i in range(4):
        DiscoveryResponder(net.add_broker(f"b{i}", site=f"site-{i}"))
    net.apply_topology(Topology.LINEAR)
    bdn = BDN("bdn", "bdn.example", net.network, np.random.default_rng(1), site="bdn-site")
    bdn.start()
    for broker in net.broker_list():
        start_heartbeat(broker, (bdn.udp_endpoint,))
    archive = ReliableDeliveryService(net.brokers["b1"], pattern="grid/**")
    net.settle(8.0)
    install_content_routing(net)
    print("Network up: 4-broker chain, content routing, archive at b1")

    # --- the producer discovers its broker ----------------------------------
    finder = DiscoveryClient(
        "svc-discover", "svc.example", net.network, np.random.default_rng(2),
        config=ClientConfig(bdn_endpoints=(bdn.udp_endpoint,),
                            response_timeout=1.5, max_responses=4, target_set_size=2),
        site="site-0",
    )
    finder.start()
    net.sim.run_for(6.0)
    outcome = run_discovery_once(finder)
    print(f"Producer discovered broker {outcome.selected.broker_id} "
          f"in {outcome.total_time * 1000:.0f} ms")

    producer_client = PubSubClient(
        "compute-svc", "svc2.example", net.network, np.random.default_rng(3), site="site-0"
    )
    producer_client.start()
    producer_client.connect(outcome.selected.tcp_endpoint)
    consumer_client = PubSubClient(
        "dashboard", "dash.example", net.network, np.random.default_rng(4), site="site-3"
    )
    consumer_client.start()
    consumer_client.connect(net.brokers["b3"].client_endpoint)
    net.sim.run_for(1.0)

    # --- reliable job-status stream across a consumer outage ----------------
    producer = ReliablePublisher(producer_client)
    statuses = []
    subscriber = ReliableSubscriber(
        consumer_client, "grid/jobs/**", lambda ev: statuses.append(ev.payload.decode())
    )
    net.sim.run_for(1.0)

    producer.publish("grid/jobs/42", b"queued")
    producer.publish("grid/jobs/42", b"running")
    net.sim.run_for(1.0)
    print(f"\nDashboard saw: {statuses}")

    print("Dashboard disconnects (network blip)...")
    consumer_client.disconnect()
    net.sim.run_for(0.5)
    producer.publish("grid/jobs/42", b"checkpoint-1")   # missed live
    producer.publish("grid/jobs/42", b"checkpoint-2")   # missed live
    net.sim.run_for(1.0)
    consumer_client.connect(net.brokers["b3"].client_endpoint)
    net.sim.run_for(1.0)
    producer.publish("grid/jobs/42", b"completed")
    net.sim.run_for(3.0)
    print(f"After reconnect + archive replay: {statuses}")
    assert statuses == ["queued", "running", "checkpoint-1", "checkpoint-2", "completed"]
    assert subscriber.gaps_requested == 1
    print(f"(one gap recovery served {archive.replays_served} archived events)")

    # --- content routing receipts -------------------------------------------
    print("\nPer-broker events routed (content routing prunes dead branches):")
    for broker in net.broker_list():
        print(f"  {broker.name}: routed={broker.events_routed} "
              f"forwarded={broker.events_forwarded}")


if __name__ == "__main__":
    main()
