"""The noise rule: calibrated, segmented measurement of host time.

On a small shared box raw throughput drifts by tens of percent within
minutes, far more than any change a later PR will want to claim.  Every
host-time number roundbench reports is therefore taken like this:

* the workload is cut into fixed-size **segments**;
* each segment is bracketed by a **calibration spin** -- a pure-Python
  dict/arithmetic loop of at least 20 ms that imports nothing from
  ``repro`` (a slowdown in the code under test must not divide itself
  away);
* the segment's figure is scaled to a reference machine that spins at
  :data:`REF_OPS` loop iterations per second;
* the metric is the **median over segments**.

Virtual-time numbers and counters need none of this: they are exact for
a seed.

This module must stay free of ``repro`` imports (a test pins that).
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = [
    "REF_OPS",
    "SPIN_ITERATIONS",
    "spin",
    "Segment",
    "SegmentClock",
    "median",
    "percentile",
]

#: Loop iterations per second of the reference machine.  Fixed in the
#: benchmark; changing it rescales every normalised number ever recorded.
REF_OPS = 5.0e6

#: Iterations per calibration spin: ~24 ms on the reference machine.
SPIN_ITERATIONS = 120_000


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """One calibration spin; returns loop iterations per second."""
    d: dict[int, int] = {}
    acc = 0
    start = time.perf_counter()
    for i in range(iterations):
        d[i & 1023] = i
        acc += d[i & 1023] ^ (i >> 3)
    return iterations / (time.perf_counter() - start)


def median(values) -> float:
    """Median of a non-empty sequence, as a float."""
    return float(statistics.median(values))


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of a sorted sequence.

    Same definition as ``numpy.percentile``'s default, without importing
    numpy here.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


@dataclass(slots=True)
class Segment:
    """One measured segment: raw host time plus its calibration.

    ``speed`` is ``local_ops / REF_OPS``: multiply a raw duration by it
    (or divide a raw rate by it) to get the figure the reference machine
    would have shown.
    """

    wall_s: float
    cpu_s: float
    speed: float
    counts: dict[str, float] = field(default_factory=dict)

    def rate(self, key: str) -> float:
        """Normalised ``counts[key]`` per host second."""
        return self.counts[key] / (self.wall_s * self.speed)

    def raw_rate(self, key: str) -> float:
        return self.counts[key] / self.wall_s


class SegmentClock:
    """Times segments, sharing one spin between neighbouring segments.

    ``spin_fn`` lets the traced pass hand in a span-wrapped :func:`spin`,
    so calibration shows up as its own layer instead of as a gap.
    """

    def __init__(self, spin_fn: Callable[[], float] = spin) -> None:
        self._spin = spin_fn
        self._before = spin_fn()
        self.segments: list[Segment] = []

    def measure(self, body: Callable[[], dict[str, float]]) -> Segment:
        """Run ``body`` as one segment; it returns the segment's counts."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        counts = body()
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        return self.record(wall, cpu, counts)

    def record(self, wall_s: float, cpu_s: float, counts: dict[str, float]) -> Segment:
        """Close a segment timed by the caller: spin, scale, append."""
        after = self._spin()
        speed = 0.5 * (self._before + after) / REF_OPS
        self._before = after
        segment = Segment(wall_s=wall_s, cpu_s=cpu_s, speed=speed, counts=counts)
        self.segments.append(segment)
        return segment

    def speed_now(self) -> float:
        """Machine speed from a fresh spin averaged with the last one."""
        after = self._spin()
        speed = 0.5 * (self._before + after) / REF_OPS
        self._before = after
        return speed
