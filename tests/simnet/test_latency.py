"""Tests for the latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simnet.latency import BANDWIDTH, HOP_COUNT, MatrixLatencyModel, UniformLatencyModel


class TestUniformLatencyModel:
    def test_distinct_sites_use_base(self):
        model = UniformLatencyModel(base=0.05, jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        assert model.delay("a", "b", 0, rng) == pytest.approx(0.05)

    def test_same_site_uses_local(self):
        model = UniformLatencyModel(base=0.05, local=0.001, jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        assert model.delay("a", "a", 0, rng) == pytest.approx(0.001)

    def test_size_term(self):
        model = UniformLatencyModel(base=0.01, jitter_fraction=0.0)
        rng = np.random.default_rng(0)
        assert model.delay("a", "b", 500, rng) == pytest.approx(0.01 + 500 / BANDWIDTH)

    def test_jitter_only_increases(self):
        model = UniformLatencyModel(base=0.01, jitter_fraction=0.2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert model.delay("a", "b", 0, rng) >= 0.01

    def test_hops(self):
        model = UniformLatencyModel()
        assert model.hops("a", "b") == HOP_COUNT
        assert model.hops("a", "a") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(base=0.0)


def small_matrix() -> MatrixLatencyModel:
    return MatrixLatencyModel(
        sites=("x", "y", "z"),
        one_way_ms=np.array([[0.3, 10.0, 50.0], [10.0, 0.3, 40.0], [50.0, 40.0, 0.3]]),
        jitter_sigma=0.0,
    )


class TestMatrixLatencyModel:
    def test_base_delay_lookup(self):
        model = small_matrix()
        assert model.base_delay("x", "y") == pytest.approx(0.010)
        assert model.base_delay("x", "z") == pytest.approx(0.050)
        assert model.base_delay("x", "x") == pytest.approx(0.0003)

    def test_symmetry(self):
        model = small_matrix()
        for a in model.sites:
            for b in model.sites:
                assert model.base_delay(a, b) == model.base_delay(b, a)

    def test_delay_without_jitter_equals_base(self):
        model = small_matrix()
        rng = np.random.default_rng(0)
        assert model.delay("x", "y", 0, rng) == pytest.approx(0.010)

    def test_jitter_varies_samples(self):
        model = MatrixLatencyModel(
            sites=("x", "y"),
            one_way_ms=np.array([[0.3, 10.0], [10.0, 0.3]]),
            jitter_sigma=0.1,
        )
        rng = np.random.default_rng(0)
        samples = {model.delay("x", "y", 0, rng) for _ in range(10)}
        assert len(samples) == 10

    def test_hops_scale_with_distance(self):
        model = small_matrix()
        assert model.hops("x", "y") < model.hops("x", "z")
        assert model.hops("x", "x") == 1

    def test_unknown_site_raises(self):
        model = small_matrix()
        with pytest.raises(KeyError):
            model.base_delay("x", "nowhere")

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MatrixLatencyModel(
                sites=("a", "b"), one_way_ms=np.array([[0.3, 5.0], [6.0, 0.3]])
            )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            MatrixLatencyModel(sites=("a", "b"), one_way_ms=np.zeros((3, 3)))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MatrixLatencyModel(
                sites=("a", "b"), one_way_ms=np.array([[0.3, -1.0], [-1.0, 0.3]])
            )

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            MatrixLatencyModel(sites=("a", "a"), one_way_ms=np.full((2, 2), 0.3))
