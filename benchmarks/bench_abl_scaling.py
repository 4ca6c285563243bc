"""Ablation -- scaling the broker count (paper section 9 discussion).

*"As the number of brokers increases we face the problem of scalability
as waiting for more brokers would badly affect the total time in making
a decision on the best broker to connect to."*

We grow the broker population on a synthetic WAN and compare two
dissemination designs:

* **unconnected / O(N) BDN fan-out** -- mean wait grows linearly with N
  (the per-destination dispatch cost accumulates);
* **connected (random tree) network dissemination with
  closest+farthest injection** -- the broker network does the work, so
  the wait grows with network *depth*, far slower than N.

The client bounds its exposure with ``max_responses`` (the paper's
"first N responses" knob).  The observed shape: the O(N) fan-out wait
grows with the population until the cap kicks in (the client stops
listening after the first 10 responders, i.e. after ~10 fan-out slots),
at which point the *client's* time flattens -- exactly the mitigation
the paper proposes for the scalability problem -- while network
dissemination stays cheap at every size.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import record_report
from repro.core.config import BDNConfig, ClientConfig
from repro.discovery.advertisement import start_heartbeat
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import repeat_discovery
from repro.experiments.report import comparison_table
from repro.substrate.builder import BrokerNetwork, Topology
from repro.topology.generators import random_waxman_sites

SIZES = (5, 10, 20, 40)
RUNS = 15


def _run_world(n: int, connected: bool, seed: int) -> float:
    """Mean wait-for-initial-responses (ms) with ``n`` brokers."""
    site_rng = np.random.default_rng(seed)
    latency = random_waxman_sites(n + 2, site_rng)
    net = BrokerNetwork(seed=seed, latency=latency)
    names = []
    for i in range(n):
        broker = net.add_broker(f"b{i:02d}", site=latency.sites[i])
        DiscoveryResponder(broker)
        names.append(broker.name)
    if connected:
        net.apply_topology(Topology.RANDOM_TREE, names)
    bdn = BDN(
        "bdn", "bdn.host", net.network, np.random.default_rng(seed + 1),
        config=BDNConfig(injection="all" if not connected else "closest_farthest"),
        site=latency.sites[n],
    )
    bdn.start()
    for name in names:
        start_heartbeat(net.brokers[name], (bdn.udp_endpoint,))
    net.settle(8.0)
    client = DiscoveryClient(
        "client", "client.host", net.network, np.random.default_rng(seed + 2),
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            max_responses=min(10, n),  # "first N responses"
            target_set_size=3,
            response_timeout=4.5,
        ),
        site=latency.sites[n + 1],
    )
    client.start()
    net.sim.run_for(6.0)
    outcomes = repeat_discovery(client, runs=RUNS, gap=0.3)
    waits = [
        o.phases.duration("wait_initial_responses") * 1000
        for o in outcomes
        if o.success
    ]
    return float(np.mean(waits))


def test_ablation_scaling(benchmark):
    rows = []
    unconnected_wait = {}
    connected_wait = {}
    for n in SIZES:
        unconnected_wait[n] = _run_world(n, connected=False, seed=80 + n)
        connected_wait[n] = _run_world(n, connected=True, seed=80 + n)
        rows.append(
            (
                f"N = {n}",
                {
                    "O(N) fan-out (ms)": unconnected_wait[n],
                    "network dissem. (ms)": connected_wait[n],
                },
            )
        )
    benchmark.pedantic(
        lambda: _run_world(10, connected=True, seed=999), rounds=1, iterations=1
    )
    record_report(
        "abl-scaling",
        comparison_table(
            rows,
            columns=["O(N) fan-out (ms)", "network dissem. (ms)"],
            title="Ablation -- mean wait vs broker count (client caps at first 10 responses)",
        ),
    )
    # O(N) fan-out cost grows with the population until the client's
    # first-N cap bounds it (N=10 is the last uncapped point)...
    assert unconnected_wait[10] > unconnected_wait[5] * 1.5
    # ...the cap then holds the client's wait roughly flat...
    assert unconnected_wait[40] < unconnected_wait[10] * 1.5
    # ...and network dissemination beats O(N) fan-out at every size.
    for n in SIZES:
        assert connected_wait[n] < unconnected_wait[n]
