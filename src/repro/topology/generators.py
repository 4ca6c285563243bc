"""Synthetic WANs and broker graphs for the scaling ablations.

The paper's evaluation stops at five brokers; its discussion of
scalability ("as the number of brokers increases we face the problem of
scalability as waiting for more brokers would badly affect the total
time") motivates larger sweeps.  These generators produce:

* coordinate-embedded random site sets whose pairwise latencies follow
  geometric distance (:func:`random_waxman_sites`,
  :func:`grid_latency_model`);
* scale-free broker graphs (:func:`scale_free_broker_graph`) for
  routing/dissemination experiments beyond the paper's three shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.simnet.latency import MatrixLatencyModel

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "random_waxman_sites",
    "grid_latency_model",
    "scale_free_broker_graph",
]

# Speed of light in fibre is ~200 km/ms; WAN paths are ~2x the geodesic,
# so ~0.01 ms one-way per simulated km works as a coarse conversion.
_MS_PER_UNIT = 0.02
_MIN_ONE_WAY_MS = 0.3


def random_waxman_sites(
    n: int,
    rng: np.random.Generator,
    extent: float = 3000.0,
    jitter_sigma: float = 0.08,
) -> MatrixLatencyModel:
    """``n`` sites scattered uniformly in a square, latency = distance.

    Parameters
    ----------
    n:
        Number of sites; named ``"site00" ... "siteNN"``.
    rng:
        Randomness for the coordinates.
    extent:
        Side of the square in simulated kilometres (3000 km ~ the
        continental US).
    jitter_sigma:
        Forwarded to the latency model.
    """
    if n < 1:
        raise ValueError("need at least one site")
    coords = rng.uniform(0.0, extent, size=(n, 2))
    deltas = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((deltas**2).sum(axis=2))
    one_way_ms = np.maximum(dist * _MS_PER_UNIT, _MIN_ONE_WAY_MS)
    np.fill_diagonal(one_way_ms, _MIN_ONE_WAY_MS)
    sites = tuple(f"site{i:02d}" for i in range(n))
    return MatrixLatencyModel(sites=sites, one_way_ms=one_way_ms, jitter_sigma=jitter_sigma)


def grid_latency_model(
    rows: int, cols: int, hop_ms: float = 5.0, jitter_sigma: float = 0.05
) -> MatrixLatencyModel:
    """Sites on a grid; latency proportional to Manhattan distance.

    Handy for tests that need exactly predictable orderings.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    names: list[str] = []
    points: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            names.append(f"g{r}_{c}")
            points.append((r, c))
    n = len(names)
    one_way_ms = np.full((n, n), _MIN_ONE_WAY_MS)
    for i in range(n):
        for j in range(n):
            if i != j:
                manhattan = abs(points[i][0] - points[j][0]) + abs(points[i][1] - points[j][1])
                one_way_ms[i, j] = max(manhattan * hop_ms, _MIN_ONE_WAY_MS)
    return MatrixLatencyModel(
        sites=tuple(names), one_way_ms=one_way_ms, jitter_sigma=jitter_sigma
    )


def scale_free_broker_graph(n: int, rng: np.random.Generator, m: int = 2) -> nx.Graph:
    """A Barabasi-Albert broker graph with string node names.

    Broker networks grown by operators attaching new brokers to
    well-known ones exhibit preferential attachment; BA is the standard
    synthetic model for that.  Nodes are renamed ``"b00", "b01", ...``
    so they can be used directly as broker names.
    """
    if n < m + 1:
        raise ValueError(f"need n > m (got n={n}, m={m})")
    import networkx as nx

    seed = int(rng.integers(0, 2**31))
    g = nx.barabasi_albert_graph(n, m, seed=seed)
    return nx.relabel_nodes(g, {i: f"b{i:02d}" for i in g.nodes})
