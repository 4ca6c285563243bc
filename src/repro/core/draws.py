"""Scalar random draws without numpy's per-call argument handling.

``Generator.uniform`` and ``Generator.lognormal`` parse and broadcast
their arguments on every call, which costs more than the draw itself
when one float is wanted.  numpy computes a uniform as ``low + (high -
low) * next_double`` and a lognormal as ``exp(mean + sigma *
standard_normal)``, so these helpers spell the same arithmetic over the
same generator: they consume the identical stream and return the
identical float, for about a third of the cost of a uniform and a tenth
less than a lognormal.  ``tests/core/test_draws.py`` pins the equality;
a numpy that changed its formulas would fail it, and the golden digests
decide.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["uniform", "lognormal"]


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``float(rng.uniform(low, high))``, drawn without the call's overhead."""
    return low + (high - low) * rng.random()


def lognormal(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """``float(rng.lognormal(mean, sigma))``, drawn without the call's overhead."""
    return math.exp(mean + sigma * rng.standard_normal())
