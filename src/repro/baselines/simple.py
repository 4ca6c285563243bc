"""Trivial selectors: static, random, and ping-everything.

``StaticSelector`` is the behaviour the paper argues against in
section 1.2: "simple solutions which rely on an entity accessing a
certain known remote broker can sometimes lead to bandwidth
degradations and poor utilizations of newly added brokers".
``PingAllSelector`` is the quality ceiling at maximal probe cost.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import DistanceOracle, SelectionResult

__all__ = ["StaticSelector", "RandomSelector", "PingAllSelector"]


class StaticSelector:
    """Always connect to one fixed, well-known broker: the lexically
    first broker at selection time."""

    name = "static"

    def select(
        self,
        client_site: str,
        brokers: dict[str, str],
        oracle: DistanceOracle,
        rng: np.random.Generator,
    ) -> SelectionResult:
        return SelectionResult(broker=min(brokers), probes=0)


class RandomSelector:
    """Pick a broker uniformly at random (zero measurement cost)."""

    name = "random"

    def select(
        self,
        client_site: str,
        brokers: dict[str, str],
        oracle: DistanceOracle,
        rng: np.random.Generator,
    ) -> SelectionResult:
        names = sorted(brokers)
        chosen = names[int(rng.integers(len(names)))]
        return SelectionResult(broker=chosen, probes=0)


class PingAllSelector:
    """Measure every broker directly; pick the minimum.

    The quality ceiling -- and the cost the paper's target-set design
    avoids paying ("usually the broker target set is limited to a very
    small number, between 5 and 20").
    """

    name = "ping-all"

    def __init__(self, samples: int = 2) -> None:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.samples = samples

    def select(
        self,
        client_site: str,
        brokers: dict[str, str],
        oracle: DistanceOracle,
        rng: np.random.Generator,
    ) -> SelectionResult:
        before = oracle.probes
        measured = {
            name: oracle.measure_rtt(client_site, site, self.samples)
            for name, site in sorted(brokers.items())
        }
        chosen = min(measured, key=lambda b: (measured[b], b))
        return SelectionResult(
            broker=chosen,
            probes=oracle.probes - before,
            estimated_rtt=measured[chosen],
        )
