"""The cheap scalar draws are numpy's own draws.

:mod:`repro.core.draws` spells ``Generator.uniform`` and
``Generator.lognormal`` as the arithmetic numpy performs, so every
virtual-time result depends on that arithmetic staying numpy's.  These
cases compare the helpers, and the fabric's per-datagram draws that use
them, with numpy's methods on a twin generator of the same seed: equal
floats and an equal stream position afterwards.  If one fails after a
numpy upgrade, the golden digests (``tests/simnet/golden_traces.json``)
decide whether simulated runs still reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import NOISE_SIGMA
from repro.core.draws import lognormal, uniform
from repro.discovery.responder import _PROCESS_DELAY_RANGE
from repro.simnet.clock import INIT_DELAY_RANGE, RESIDUAL_RANGE
from repro.simnet.latency import BANDWIDTH, HOPS_PER_MS
from repro.simnet.loss import PerHopLoss
from repro.topology.sites import _ONE_WAY_MS, paper_latency_model, paper_site_names

SEEDS = range(20)
DRAWS = 500
#: The (low, high) of every scalar uniform draw in ``src/``: clock
#: offset and skew, NTP init and residual, responder processing delay,
#: decorrelated-jitter backoff and chaos schedule ranges.
RANGES = (
    (-5.0, 5.0),
    (-100e-6, 100e-6),
    INIT_DELAY_RANGE,
    RESIDUAL_RANGE,
    _PROCESS_DELAY_RANGE,
    (0.25, 0.75),
    (0.3, 0.8),
    (0.5, 0.95),
    (20.0, 60.0),
    (0.0, 15.0),
    (4.5, 15.0),
)
#: Every lognormal sigma in ``src/``: the WAN jitter default and the
#: baselines' measurement noise.
SIGMAS = (0.08, NOISE_SIGMA)


def _twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same(ours: list, numpy_s: list, ours_rng, numpy_rng, what: str) -> None:
    assert ours == numpy_s and ours_rng.random() == numpy_rng.random(), (
        f"{what} differs from numpy {np.__version__}'s own draw; the golden "
        "digests in tests/simnet/golden_traces.json decide whether simulated "
        "runs still reproduce"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_is_numpys_uniform(seed):
    ours_rng, numpy_rng = _twins(seed)
    for low, high in RANGES:
        ours = [uniform(ours_rng, low, high) for _ in range(DRAWS)]
        theirs = [float(numpy_rng.uniform(low, high)) for _ in range(DRAWS)]
        _same(ours, theirs, ours_rng, numpy_rng, f"uniform({low}, {high}) at seed {seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_lognormal_is_numpys_lognormal(seed):
    ours_rng, numpy_rng = _twins(seed)
    for sigma in SIGMAS:
        ours = [lognormal(ours_rng, 0.0, sigma) for _ in range(DRAWS)]
        theirs = [float(numpy_rng.lognormal(0.0, sigma)) for _ in range(DRAWS)]
        _same(ours, theirs, ours_rng, numpy_rng, f"lognormal(0, {sigma}) at seed {seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_delay_and_per_hop_loss_keep_their_formulas(seed):
    """One loss draw, then one jitter draw, per datagram -- against the
    numpy-scalar formulas the fabric used before its constants became
    Python floats."""
    model = paper_latency_model()
    loss = PerHopLoss()
    sites = paper_site_names()
    index = {s: i for i, s in enumerate(sites)}
    seconds = _ONE_WAY_MS / 1000.0
    hop_counts = np.maximum(1, np.round(_ONE_WAY_MS * HOPS_PER_MS)).astype(int)
    pairs = [(a, b) for a in sites for b in sites]
    ours_rng, numpy_rng = _twins(seed)
    ours, theirs = [], []
    for i in range(DRAWS):
        src, dst = pairs[i % len(pairs)]
        size = 40 + i % 300
        hops = int(hop_counts[index[src], index[dst]])
        assert model.hops(src, dst) == hops
        ours.append((loss.lost(hops, ours_rng), model.delay(src, dst, size, ours_rng)))
        dropped = bool(numpy_rng.random() >= float((1.0 - loss.per_hop) ** hops))
        base = seconds[index[src], index[dst]] * float(numpy_rng.lognormal(0.0, model.jitter_sigma))
        theirs.append((dropped, float(base) + size / BANDWIDTH))
    _same(ours, theirs, ours_rng, numpy_rng, f"the fabric's draws at seed {seed}")
