"""The paper's statistics: outlier-trimmed summaries.

Every per-site result figure (Figures 3-7, 12, 13, 14) reports the
same five numbers over a set of runs::

    Metric        Time (MilliSec)
    Mean          ...
    deviation     ...   (sample standard deviation)
    Maximum       ...
    Minimum       ...
    Error         ...   (standard error of the mean)

and the methodology is fixed in section 9: *"The discovery process was
carried out 120 times and the first 100 results were selected after
removing outliers."*  :func:`paper_sample` reproduces that pipeline
(IQR outlier removal, then the first ``keep`` survivors in run order),
and :func:`summarize` produces the five-number summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SummaryStats",
    "remove_outliers_iqr",
    "paper_sample",
    "summarize",
]


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """The paper's five-number summary over a sample.

    All values carry the unit of the input sample (the benchmarks feed
    milliseconds, matching the figures).
    """

    mean: float
    deviation: float
    maximum: float
    minimum: float
    error: float
    count: int

    def rows(self) -> list[tuple[str, float]]:
        """(label, value) pairs in the paper's row order."""
        return [
            ("Mean", self.mean),
            ("deviation", self.deviation),
            ("Maximum", self.maximum),
            ("Minimum", self.minimum),
            ("Error", self.error),
        ]


def remove_outliers_iqr(values: np.ndarray) -> np.ndarray:
    """Drop values outside ``[Q1 - 1.5*IQR, Q3 + 1.5*IQR]``, keeping order.

    The classic Tukey fence.  With fewer than 4 values there is no
    meaningful quartile spread, so the input is returned unchanged.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        return values
    q1, q3 = np.percentile(values, [25, 75])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return values[(values >= lo) & (values <= hi)]


def paper_sample(values, keep: int = 100) -> np.ndarray:
    """The section 9 sampling pipeline.

    Remove outliers (Tukey fences), then keep the *first* ``keep``
    survivors in run order -- exactly "the first 100 results were
    selected after removing outliers".
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    cleaned = remove_outliers_iqr(np.asarray(values, dtype=float))
    return cleaned[:keep]


def summarize(values) -> SummaryStats:
    """Five-number summary of a sample (no trimming applied here).

    ``deviation`` is the sample standard deviation (ddof=1) and
    ``Error`` the standard error of the mean, matching how the paper's
    Mean/deviation/Error triples relate in its figures.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    deviation = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SummaryStats(
        mean=float(arr.mean()),
        deviation=deviation,
        maximum=float(arr.max()),
        minimum=float(arr.min()),
        error=deviation / float(np.sqrt(arr.size)) if arr.size > 1 else 0.0,
        count=int(arr.size),
    )
