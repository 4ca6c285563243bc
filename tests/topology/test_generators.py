"""Tests for synthetic topology generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.generators import random_waxman_sites


class TestWaxmanSites:
    def test_site_count_and_names(self):
        model = random_waxman_sites(12, np.random.default_rng(0))
        assert len(model.sites) == 12
        assert model.sites[0] == "site00"

    def test_deterministic(self):
        a = random_waxman_sites(8, np.random.default_rng(5), jitter_sigma=0.0)
        b = random_waxman_sites(8, np.random.default_rng(5), jitter_sigma=0.0)
        for s1 in a.sites:
            for s2 in a.sites:
                assert a.base_delay(s1, s2) == b.base_delay(s1, s2)

    def test_triangle_inequality_roughly_holds(self):
        """Euclidean-derived latencies satisfy the triangle inequality."""
        model = random_waxman_sites(10, np.random.default_rng(2), jitter_sigma=0.0)
        sites = model.sites
        for a in sites[:5]:
            for b in sites[:5]:
                for c in sites[:5]:
                    # Floors at the minimum latency can break strictness
                    # by at most the floor value itself.
                    assert model.base_delay(a, c) <= (
                        model.base_delay(a, b) + model.base_delay(b, c) + 0.0004
                    )

    def test_minimum_site_count(self):
        with pytest.raises(ValueError):
            random_waxman_sites(0, np.random.default_rng(0))
