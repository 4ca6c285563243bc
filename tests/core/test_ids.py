"""Tests for deterministic UUID generation."""

from __future__ import annotations

import uuid

import numpy as np

from repro.core.ids import IdGenerator


class TestIdGenerator:
    def test_determinism_given_same_seed(self):
        a = IdGenerator(np.random.default_rng(42))
        b = IdGenerator(np.random.default_rng(42))
        assert [a() for _ in range(10)] == [b() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = IdGenerator(np.random.default_rng(1))
        b = IdGenerator(np.random.default_rng(2))
        assert a() != b()

    def test_no_repeats_within_stream(self):
        gen = IdGenerator(np.random.default_rng(0))
        ids = [gen() for _ in range(1000)]
        assert len(set(ids)) == 1000

    def test_output_is_valid_uuid4(self):
        gen = IdGenerator(np.random.default_rng(0))
        for _ in range(20):
            parsed = uuid.UUID(gen())
            assert parsed.version == 4
            assert parsed.variant == uuid.RFC_4122

    def test_spawn_produces_independent_streams(self):
        parent = IdGenerator(np.random.default_rng(7))
        child1 = parent.spawn()
        child2 = parent.spawn()
        c1 = [child1() for _ in range(5)]
        c2 = [child2() for _ in range(5)]
        assert set(c1).isdisjoint(c2)

    def test_spawn_is_deterministic(self):
        a = IdGenerator(np.random.default_rng(7)).spawn()
        b = IdGenerator(np.random.default_rng(7)).spawn()
        assert a() == b()
