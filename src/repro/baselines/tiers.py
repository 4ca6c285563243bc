"""Tiers-style hierarchical peer finding (related work [11]).

"The Tiers approach uses hierarchical grouping of peers for improving
the scalability of the system."

Brokers are clustered (k-means over their landmark-RTT vectors, a
reasonable stand-in for the administrative/topological grouping Tiers
assumes); each cluster elects a head.  The client pings only the
cluster heads, descends into the nearest cluster, and pings its
members.  Probes scale as O(sqrt(N)) instead of O(N), at the cost of a
wrong-cluster risk near boundaries.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.vq import kmeans2

from repro.baselines.base import DistanceOracle, SelectionResult

__all__ = ["TiersSelector"]


class TiersSelector:
    """Two-level hierarchical probing.

    Parameters
    ----------
    landmark_sites:
        Sites used to build the clustering feature vectors (offline).

    The brokers fall into ``round(sqrt(N))`` top-level groups.
    """

    name = "tiers"

    def __init__(self, landmark_sites: tuple[str, ...]) -> None:
        if not landmark_sites:
            raise ValueError("need at least one landmark site for clustering")
        self.landmark_sites = tuple(landmark_sites)

    def select(
        self,
        client_site: str,
        brokers: dict[str, str],
        oracle: DistanceOracle,
        rng: np.random.Generator,
    ) -> SelectionResult:
        before = oracle.probes
        names = sorted(brokers)
        k = min(max(1, int(round(len(names) ** 0.5))), len(names))
        # Offline: cluster brokers by their landmark RTT vectors.
        features = np.array(
            [
                [oracle.true_rtt(brokers[name], l) for l in self.landmark_sites]
                for name in names
            ]
        )
        if k == 1 or len(names) <= 2:
            labels = np.zeros(len(names), dtype=int)
        else:
            _, labels = kmeans2(features, k, minit="++", seed=int(rng.integers(2**31)))
        groups: dict[int, list[str]] = {}
        for name, label in zip(names, labels):
            groups.setdefault(int(label), []).append(name)
        # Each cluster's head is its lexically-first member (any stable
        # election rule works).
        heads = {label: members[0] for label, members in groups.items()}
        # Online: ping the heads, descend into the nearest cluster.
        head_rtts = {
            label: oracle.measure_rtt(client_site, brokers[head])
            for label, head in sorted(heads.items())
        }
        nearest_label = min(head_rtts, key=lambda l: (head_rtts[l], l))
        member_rtts = {
            name: oracle.measure_rtt(client_site, brokers[name])
            for name in groups[nearest_label]
        }
        chosen = min(member_rtts, key=lambda b: (member_rtts[b], b))
        return SelectionResult(
            broker=chosen,
            probes=oracle.probes - before,
            estimated_rtt=member_rtts[chosen],
        )
