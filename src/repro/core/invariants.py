"""Soak invariants as pure functions over plain evidence.

One definition each, shared by the sim chaos harness
(:mod:`repro.discovery.chaos`), the cluster exit report
(:mod:`repro.cluster.report`) and the live monitor
(:mod:`repro.obs.slo`); the callers format and deduplicate.
"""

from __future__ import annotations

__all__ = ["Interval", "election_overlaps"]

#: ``(member, term, start, until)`` on one time axis.
Interval = tuple[str, float, float, float]


def election_overlaps(
    intervals: list[Interval], eps: float
) -> list[tuple[Interval, Interval]]:
    """Election safety: pairs of leaderships that different members held at once.

    Two rows of different members overlap when each starts more than
    ``eps`` before the other ends.
    """
    pairs = []
    for i, a in enumerate(intervals):
        for b in intervals[i + 1 :]:
            if a[0] != b[0] and a[2] < b[3] - eps and b[2] < a[3] - eps:
                pairs.append((a, b))
    return pairs
