"""Shared world-builders for discovery tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import BDNConfig, BrokerConfig, ClientConfig
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.simnet.latency import LatencyModel, UniformLatencyModel
from repro.simnet.loss import LossModel, NoLoss
from repro.substrate.builder import BrokerNetwork, Topology


class World:
    """A small discovery world with convenient knobs."""

    def __init__(
        self,
        n_brokers: int = 3,
        topology: str = Topology.UNCONNECTED,
        injection: str = "all",
        seed: int = 0,
        loss: LossModel | None = None,
        latency: LatencyModel | None = None,
        register: bool = True,
        broker_config: BrokerConfig | None = None,
        broker_multicast: bool = True,
        bdn_config: BDNConfig | None = None,
        client_config: ClientConfig | None = None,
        client_realm: str | None = None,
        shared_realm: str | None = None,
    ) -> None:
        self.net = BrokerNetwork(
            seed=seed,
            latency=latency or UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=loss if loss is not None else NoLoss(),
        )
        self.brokers = []
        self.responders = {}
        for i in range(n_brokers):
            broker = self.net.add_broker(
                f"b{i}",
                site=f"s{i}",
                realm=shared_realm,
                config=broker_config,
                multicast_enabled=broker_multicast,
            )
            self.responders[broker.name] = DiscoveryResponder(broker)
            self.brokers.append(broker)
        if topology != Topology.UNCONNECTED:
            self.net.apply_topology(topology)
        self.bdn = BDN(
            "bdn0",
            "bdn0.host",
            self.net.network,
            np.random.default_rng(seed + 1),
            config=bdn_config if bdn_config is not None else BDNConfig(injection=injection),
            site="bdn-site",
            realm=shared_realm,
        )
        self.bdn.start()
        if register:
            for broker in self.brokers:
                advertise_direct(broker, self.bdn.udp_endpoint)
        self.net.settle(8.0)
        cfg = client_config
        if cfg is None:
            cfg = ClientConfig(
                bdn_endpoints=(self.bdn.udp_endpoint,),
                max_responses=n_brokers,
                target_set_size=min(3, n_brokers),
                response_timeout=2.0,
            )
        self.client = DiscoveryClient(
            "client0",
            "client0.host",
            self.net.network,
            np.random.default_rng(seed + 2),
            config=cfg,
            site="client-site",
            realm=client_realm if client_realm is not None else shared_realm,
        )
        self.client.start()
        self.net.sim.run_for(6.0)

    @property
    def sim(self):
        return self.net.sim

    def discover(self):
        from repro.experiments.harness import run_discovery_once

        return run_discovery_once(self.client)


@pytest.fixture
def small_world() -> World:
    """Three unconnected registered brokers, BDN fan-out to all."""
    return World()
