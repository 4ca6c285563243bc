"""Ablation -- usage-metric weighting and new-broker assimilation.

Paper, advantage 3 (section 8): *"Since broker discovery responses
include the usage metric, a newly added broker within a cluster would
be preferentially utilized by the discovery algorithms."*

Setup: a cluster of three brokers at the client's site -- two of them
carrying heavy client load, one freshly added and idle -- plus two
remote brokers.  We compare the default weight configuration against a
"delay-only" configuration (all usage factors zeroed), measuring how
often the fresh broker wins.

Expected shape: with usage weighting the fresh broker is preferred
near-unconditionally; with delay-only weighting the equidistant loaded
peers win a large share (whichever the per-world estimate bias and
ping jitter happen to favour).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import record_report
from repro.core.config import BDNConfig, ClientConfig
from repro.core.metrics import WeightConfig
from repro.discovery.advertisement import start_heartbeat
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import repeat_discovery
from repro.experiments.report import comparison_table
from repro.simnet.latency import UniformLatencyModel
from repro.substrate.builder import BrokerNetwork
from repro.substrate.client import PubSubClient

RUNS = 6
WORLDS = 8
LOADED_CLIENTS = 30


def _build_world(weights: WeightConfig, seed: int):
    net = BrokerNetwork(
        seed=seed, latency=UniformLatencyModel(base=0.012, jitter_fraction=0.05)
    )
    cluster_site = "cluster"
    names = ["loaded-a", "loaded-b", "fresh", "remote-a", "remote-b"]
    sites = [cluster_site, cluster_site, cluster_site, "far-1", "far-2"]
    for name, site in zip(names, sites):
        broker = net.add_broker(name, site=site)
        DiscoveryResponder(broker)
    bdn = BDN(
        "bdn", "bdn.host", net.network, np.random.default_rng(seed + 1),
        config=BDNConfig(injection="all"), site="bdn-site",
    )
    bdn.start()
    for name in names:
        start_heartbeat(net.brokers[name], (bdn.udp_endpoint,))
    # Load down the two old cluster brokers.
    for i, name in enumerate(("loaded-a", "loaded-b")):
        for j in range(LOADED_CLIENTS):
            c = PubSubClient(
                f"load-{i}-{j}", f"l{i}x{j}.host", net.network,
                np.random.default_rng(1000 + i * 100 + j), site=f"ld{i}{j}",
            )
            c.start()
            c.connect(net.brokers[name].client_endpoint)
    net.settle(8.0)
    client = DiscoveryClient(
        "joiner", "joiner.host", net.network, np.random.default_rng(seed + 2),
        config=ClientConfig(
            bdn_endpoints=(bdn.udp_endpoint,),
            max_responses=5,
            target_set_size=3,
            response_timeout=2.0,
            weights=weights,
        ),
        site=cluster_site,
    )
    client.start()
    net.sim.run_for(6.0)
    return client


def _fresh_win_rate(weights: WeightConfig, base_seed: int) -> float:
    """Fresh-broker win rate averaged over independent worlds.

    Within one world the NTP residual draws (and hence the estimate
    bias) are fixed, so the rate must be averaged across worlds.
    """
    wins: list[bool] = []
    for w in range(WORLDS):
        client = _build_world(weights, base_seed + 17 * w)
        outcomes = repeat_discovery(client, runs=RUNS, gap=0.3)
        wins.extend(o.selected.broker_id == "fresh" for o in outcomes if o.success)
    return float(np.mean(wins))


def test_ablation_usage_weighting(benchmark):
    delay_only = WeightConfig(
        free_to_total_memory=0.0,
        total_memory_mb=0.0,
        num_links=0.0,
        num_connections=0.0,
        cpu_load=0.0,
        delay_penalty_per_ms=2.0,
    )
    with_metrics = _fresh_win_rate(WeightConfig(), base_seed=61)
    without_metrics = _fresh_win_rate(delay_only, base_seed=61)

    benchmark.pedantic(
        lambda: _fresh_win_rate(WeightConfig(), base_seed=62), rounds=1, iterations=1
    )
    record_report(
        "abl-weights",
        comparison_table(
            rows=[
                ("default weights", {"fresh-broker win %": 100.0 * with_metrics}),
                ("delay-only weights", {"fresh-broker win %": 100.0 * without_metrics}),
            ],
            columns=["fresh-broker win %"],
            title=(
                "Ablation -- usage-metric weighting: share of discoveries won by "
                "the freshly added, idle cluster broker"
            ),
        ),
    )
    # Advantage 3: metric weighting steers joiners to the fresh broker.
    assert with_metrics >= 0.9
    assert with_metrics > without_metrics
