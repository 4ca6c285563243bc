"""Hotz-style landmark triangulation (related work [9]).

"[The] approach requires limited infrastructure support and uses a
small set of measurement reference points called landmarks or beacons.
The distance between each application peer and landmarks is measured,
and processed to obtain the nearest peer using triangulation methods."

Triangulation bounds: for any landmark L, by the triangle inequality
``|d(A,L) - d(B,L)| <= d(A,B) <= d(A,L) + d(B,L)``.  The classic
estimator scores each broker by the *tightest lower bound* over all
landmarks (max of ``|d(A,L) - d(B,L)|``), optionally averaged with the
tightest upper bound (min of the sums).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import DistanceOracle, SelectionResult

__all__ = ["LandmarkSelector"]


class LandmarkSelector:
    """Triangulate broker distances from shared landmark measurements.

    Parameters
    ----------
    landmark_sites:
        The beacon sites.  Brokers' landmark vectors are maintained by
        the infrastructure (offline); the client measures its own.

    A broker is scored by the midpoint of its triangulation interval
    (the lower bound alone ranks worse).
    """

    name = "landmarks"

    def __init__(self, landmark_sites: tuple[str, ...]) -> None:
        if not landmark_sites:
            raise ValueError("need at least one landmark site")
        self.landmark_sites = tuple(landmark_sites)

    def select(
        self,
        client_site: str,
        brokers: dict[str, str],
        oracle: DistanceOracle,
        rng: np.random.Generator,
    ) -> SelectionResult:
        before = oracle.probes
        client_vec = np.array(
            [oracle.measure_rtt(client_site, l) for l in self.landmark_sites]
        )
        estimates: dict[str, float] = {}
        for name, site in sorted(brokers.items()):
            broker_vec = np.array(
                [oracle.true_rtt(site, l) for l in self.landmark_sites]
            )
            lower = float(np.max(np.abs(client_vec - broker_vec)))
            upper = float(np.min(client_vec + broker_vec))
            estimates[name] = 0.5 * (lower + upper)
        chosen = min(estimates, key=lambda b: (estimates[b], b))
        return SelectionResult(
            broker=chosen,
            probes=oracle.probes - before,
            estimated_rtt=estimates[chosen],
        )
