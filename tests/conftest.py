"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.messages import DiscoveryResponse
from repro.core.metrics import UsageMetrics
from repro.security.rsa import RSAKeyPair, generate_keypair
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def network(sim: Simulator, rng: np.random.Generator) -> Network:
    """A lossless uniform-latency network with two stock hosts."""
    net = Network(sim, rng=rng)
    net.register_host("alpha.example", "site-a")
    net.register_host("beta.example", "site-b")
    return net


def pytest_collection_modifyitems(items) -> None:
    """A test leaves loop time only with its reason (``real_loop("...")``)."""
    for item in items:
        for mark in item.iter_markers("real_loop"):
            if not (mark.args and mark.args[0]):
                raise pytest.UsageError(f"{item.nodeid}: real_loop needs its reason")


# RSA key generation is the slowest primitive; share small session keys.
@pytest.fixture(scope="session")
def keypair_a() -> RSAKeyPair:
    """A 512-bit test keypair (A)."""
    return generate_keypair(512, np.random.default_rng(1001))


@pytest.fixture(scope="session")
def keypair_b() -> RSAKeyPair:
    """A 512-bit test keypair (B)."""
    return generate_keypair(512, np.random.default_rng(1002))


def make_metrics(
    free: int = 400 * 1024 * 1024,
    total: int = 512 * 1024 * 1024,
    links: int = 1,
    connections: int = 0,
    cpu: float = 0.05,
) -> UsageMetrics:
    """Convenience UsageMetrics builder for tests."""
    return UsageMetrics(
        free_memory=free,
        total_memory=total,
        num_links=links,
        num_connections=connections,
        cpu_load=cpu,
    )


def make_response(
    broker_id: str = "b1",
    hostname: str = "b1.example",
    issued_at: float = 10.0,
    metrics: UsageMetrics | None = None,
    request_uuid: str = "req-1",
    transports: tuple[tuple[str, int], ...] = (("tcp", 5045), ("udp", 5046)),
) -> DiscoveryResponse:
    """Convenience DiscoveryResponse builder for tests."""
    return DiscoveryResponse(
        request_uuid=request_uuid,
        broker_id=broker_id,
        hostname=hostname,
        transports=transports,
        issued_at=issued_at,
        metrics=metrics if metrics is not None else make_metrics(),
    )
