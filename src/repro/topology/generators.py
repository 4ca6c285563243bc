"""Synthetic WANs for the scaling ablations.

The paper's evaluation stops at five brokers; its discussion of
scalability ("as the number of brokers increases we face the problem of
scalability as waiting for more brokers would badly affect the total
time") motivates larger sweeps.  :func:`random_waxman_sites` produces
coordinate-embedded random site sets whose pairwise latencies follow
geometric distance.
"""

from __future__ import annotations

import numpy as np

from repro.simnet.latency import MatrixLatencyModel

__all__ = ["random_waxman_sites"]

# Speed of light in fibre is ~200 km/ms; WAN paths are ~2x the geodesic,
# so ~0.01 ms one-way per simulated km works as a coarse conversion.
_MS_PER_UNIT = 0.02
_MIN_ONE_WAY_MS = 0.3
#: Side of the square sites are scattered in, in simulated kilometres
#: (3000 km ~ the continental US).
EXTENT = 3000.0


def random_waxman_sites(
    n: int,
    rng: np.random.Generator,
    jitter_sigma: float = 0.08,
) -> MatrixLatencyModel:
    """``n`` sites scattered uniformly in a square of side
    :data:`EXTENT`, latency = distance.

    Parameters
    ----------
    n:
        Number of sites; named ``"site00" ... "siteNN"``.
    rng:
        Randomness for the coordinates.
    jitter_sigma:
        Forwarded to the latency model.
    """
    if n < 1:
        raise ValueError("need at least one site")
    coords = rng.uniform(0.0, EXTENT, size=(n, 2))
    deltas = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((deltas**2).sum(axis=2))
    one_way_ms = np.maximum(dist * _MS_PER_UNIT, _MIN_ONE_WAY_MS)
    np.fill_diagonal(one_way_ms, _MIN_ONE_WAY_MS)
    sites = tuple(f"site{i:02d}" for i in range(n))
    return MatrixLatencyModel(sites=sites, one_way_ms=one_way_ms, jitter_sigma=jitter_sigma)
