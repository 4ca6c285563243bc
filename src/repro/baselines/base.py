"""Common machinery for the baseline selectors.

A baseline selector answers: *given a client site and a set of brokers,
which broker should the client connect to?*  Everything it may learn
about the network goes through a :class:`DistanceOracle`, which wraps
the latency model, adds measurement noise, and **counts probes** -- so
benchmarks can report both quality and cost for every approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.simnet.latency import MatrixLatencyModel

__all__ = ["DistanceOracle", "SelectionResult", "BaselineSelector", "optimal_broker"]

#: Lognormal sigma of one probe's measurement noise.
NOISE_SIGMA = 0.08


class DistanceOracle:
    """Measured RTTs over a latency matrix, with probe accounting.

    Parameters
    ----------
    latency:
        The ground-truth WAN.
    rng:
        Randomness for per-measurement jitter (lognormal,
        :data:`NOISE_SIGMA`: a single ping sample jitters; averaging
        multiple reduces it).
    """

    def __init__(
        self,
        latency: MatrixLatencyModel,
        rng: np.random.Generator,
    ) -> None:
        self.latency = latency
        self.rng = rng
        self.probes = 0

    def true_rtt(self, site_a: str, site_b: str) -> float:
        """Ground-truth RTT in seconds (no probe charged; for scoring only)."""
        return 2.0 * self.latency.base_delay(site_a, site_b)

    def measure_rtt(self, site_a: str, site_b: str, samples: int = 1) -> float:
        """A measured RTT averaged over ``samples`` probes (charged)."""
        if samples < 1:
            raise ValueError("samples must be >= 1")
        base = self.true_rtt(site_a, site_b)
        total = 0.0
        for _ in range(samples):
            self.probes += 1
            total += base * float(self.rng.lognormal(0.0, NOISE_SIGMA))
        return total / samples


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """What one selector chose and what it cost.

    Attributes
    ----------
    broker:
        Chosen broker name.
    probes:
        Client-side measurement probes issued during selection.
    estimated_rtt:
        The selector's own estimate of the chosen broker's RTT
        (seconds), if it formed one.
    """

    broker: str
    probes: int
    estimated_rtt: float | None = None


class BaselineSelector(Protocol):
    """Interface every baseline implements."""

    #: Human-readable name used in benchmark tables.
    name: str

    def select(
        self,
        client_site: str,
        brokers: dict[str, str],
        oracle: DistanceOracle,
        rng: np.random.Generator,
    ) -> SelectionResult:
        """Choose a broker for ``client_site``.

        ``brokers`` maps broker name -> site name.
        """
        ...


def optimal_broker(client_site: str, brokers: dict[str, str], oracle: DistanceOracle) -> tuple[str, float]:
    """Ground-truth nearest broker and its true RTT (for scoring)."""
    if not brokers:
        raise ValueError("no brokers to choose from")
    best = min(brokers, key=lambda b: (oracle.true_rtt(client_site, brokers[b]), b))
    return best, oracle.true_rtt(client_site, brokers[best])
