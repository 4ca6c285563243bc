"""One-way delay models.

Delay between two endpoints has three parts:

``delay = propagation(src_site, dst_site) + jitter + size / bandwidth``

* *Propagation* comes from a site-to-site matrix of one-way latencies.
  :mod:`repro.topology.sites` builds the matrix for the paper's Table 1
  hosts (Indiana, UMN, NCSA, FSU, Cardiff).
* *Jitter* is multiplicative lognormal-ish noise: WAN paths show heavy
  right tails, which is what makes the "farthest broker's response is
  probably lost or late" heuristic of the paper meaningful.
* *Bandwidth* charges for message size; discovery messages are small so
  this term is tiny, but the substrate supports large payloads too.

Models also report a **router hop count** per site pair; the loss models
consume it (loss compounds per hop).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.draws import lognormal

__all__ = ["LatencyModel", "MatrixLatencyModel", "UniformLatencyModel"]

#: Bytes per second for the size-dependent term (10 Mbit/s, a 2005
#: WAN-ish figure).
BANDWIDTH = 1.25e6
#: Hops a :class:`UniformLatencyModel` reports between distinct sites.
HOP_COUNT = 8
#: Router hops a :class:`MatrixLatencyModel` estimates per millisecond
#: of one-way propagation delay, with a floor of 1 hop.  ~0.35 hops/ms
#: matches classic traceroute studies (a 40 ms one-way US path crosses
#: ~14 routers).
HOPS_PER_MS = 0.35


class LatencyModel(Protocol):
    """Interface consumed by the network fabric."""

    def delay(
        self, src_site: str, dst_site: str, size: int, rng: np.random.Generator
    ) -> float:
        """One-way delay in seconds for a ``size``-byte message."""
        ...

    def hops(self, src_site: str, dst_site: str) -> int:
        """Router hops between the two sites."""
        ...


class UniformLatencyModel:
    """Same base latency between every distinct site pair.

    Useful for unit tests and for LAN-style scenarios ("brokers
    separated by very small network distance such as in the same
    institution").

    Parameters
    ----------
    base:
        One-way propagation delay in seconds between distinct sites.
    local:
        Delay within a site (loopback / LAN), default 0.2 ms.
    jitter_fraction:
        Standard deviation of multiplicative jitter, as a fraction of
        the base delay.

    Distinct sites are :data:`HOP_COUNT` hops apart (1 within a site).
    """

    def __init__(
        self,
        base: float = 0.010,
        local: float = 0.0002,
        jitter_fraction: float = 0.05,
    ) -> None:
        if base <= 0 or local <= 0:
            raise ValueError("latencies must be positive")
        self.base = base
        self.local = local
        self.jitter_fraction = jitter_fraction

    def delay(
        self, src_site: str, dst_site: str, size: int, rng: np.random.Generator
    ) -> float:
        base = self.local if src_site == dst_site else self.base
        # standard_normal()*sigma consumes the identical RNG stream and
        # produces the identical float64 as normal(0, sigma), while
        # skipping the loc/scale broadcasting -- ~20% faster per draw,
        # and this is one draw per datagram/segment on the fabric.
        jitter = 1.0 + abs(rng.standard_normal()) * self.jitter_fraction
        return base * jitter + size / BANDWIDTH

    def hops(self, src_site: str, dst_site: str) -> int:
        return 1 if src_site == dst_site else HOP_COUNT


class MatrixLatencyModel:
    """Site-to-site latency matrix with lognormal jitter.

    Parameters
    ----------
    sites:
        Ordered site names; indexes the matrix.
    one_way_ms:
        ``(n, n)`` array of one-way propagation delays in milliseconds.
        The diagonal is the intra-site delay.  The matrix must be
        symmetric and non-negative.
    jitter_sigma:
        Sigma of the lognormal jitter multiplier (mean-one-ish, right
        tail).  0 disables jitter.
    """

    def __init__(
        self,
        sites: tuple[str, ...],
        one_way_ms: np.ndarray,
        jitter_sigma: float = 0.08,
    ) -> None:
        matrix = np.asarray(one_way_ms, dtype=float)
        n = len(sites)
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match {n} sites")
        if (matrix < 0).any():
            raise ValueError("latencies must be non-negative")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("latency matrix must be symmetric")
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        self.sites = tuple(sites)
        if len(set(self.sites)) != n:
            raise ValueError("site names must be unique")
        self.jitter_sigma = jitter_sigma
        # Every pair's constants resolved once, as Python numbers keyed
        # by site name: a lookup on the datagram path is two dict probes
        # and returns a float, not a numpy scalar.  Hop counts have a
        # floor of 1 and scale with propagation delay.
        seconds = (matrix / 1000.0).tolist()
        hops = np.maximum(1, np.round(matrix * HOPS_PER_MS)).astype(int).tolist()
        self._seconds = {s: dict(zip(self.sites, row)) for s, row in zip(self.sites, seconds)}
        self._hops = {s: dict(zip(self.sites, row)) for s, row in zip(self.sites, hops)}

    def base_delay(self, src_site: str, dst_site: str) -> float:
        """Jitter-free one-way propagation delay in seconds."""
        return self._seconds[src_site][dst_site]

    def delay(
        self, src_site: str, dst_site: str, size: int, rng: np.random.Generator
    ) -> float:
        base = self._seconds[src_site][dst_site]
        if self.jitter_sigma > 0:
            base *= lognormal(rng, 0.0, self.jitter_sigma)
        return base + size / BANDWIDTH

    def hops(self, src_site: str, dst_site: str) -> int:
        return self._hops[src_site][dst_site]
