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


class TestPinnedStream:
    """The ids a seed yields are part of every recorded trace: formatting
    them a batch at a time must not move one character."""

    def test_first_ids_of_seed_42(self):
        gen = IdGenerator(np.random.default_rng(42))
        assert [gen() for _ in range(3)] == [
            "8826d916-cdfb-41c6-81ff-91a761565a70",
            "2416da6e-c212-4ddb-8d88-00160eb686b2",
            "eb819333-b501-4c18-8c53-c786ed62c2f9",
        ]

    def test_ids_16_and_17_straddle_a_refill(self):
        gen = IdGenerator(np.random.default_rng(42))
        ids = [gen() for _ in range(17)]
        assert ids[15:] == [
            "d4c82aec-8ebb-48be-8b4b-dc5dc3b7aef7",
            "227d2d69-694a-4953-a231-d1e78172d65e",
        ]

    def test_matches_uuid_module_over_a_long_stream(self):
        """Each id is ``str(uuid.UUID(bytes=...))`` of the next 16 bytes
        of the generator's stream, version and variant bits forced."""
        gen = IdGenerator(np.random.default_rng(42))
        stream = np.random.default_rng(42)
        for _ in range(10_240 // 16):
            block = stream.bytes(256)
            for i in range(0, 256, 16):
                b = bytearray(block[i : i + 16])
                b[6] = (b[6] & 0x0F) | 0x40
                b[8] = (b[8] & 0x3F) | 0x80
                assert gen() == str(uuid.UUID(bytes=bytes(b)))
