"""Tests for the RSA implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import SecurityError
from repro.security.rsa import generate_keypair


class TestKeyGeneration:
    def test_modulus_exact_size(self, keypair_a):
        assert keypair_a.public.n.bit_length() == 512

    def test_keys_are_consistent(self, keypair_a):
        priv = keypair_a.private
        assert priv.p * priv.q == priv.n
        assert (priv.d * priv.e) % ((priv.p - 1) * (priv.q - 1)) == 1

    def test_public_derived_from_private(self, keypair_a):
        assert keypair_a.private.public() == keypair_a.public

    def test_deterministic_given_seed(self):
        k1 = generate_keypair(512, np.random.default_rng(3))
        k2 = generate_keypair(512, np.random.default_rng(3))
        assert k1.public == k2.public

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(128)
        with pytest.raises(ValueError):
            generate_keypair(511)


class TestSignatures:
    def test_sign_verify_roundtrip(self, keypair_a):
        message = b"the broker discovery request"
        sig = keypair_a.private.sign(message)
        assert keypair_a.public.verify(message, sig)

    def test_tampered_message_rejected(self, keypair_a):
        sig = keypair_a.private.sign(b"original")
        assert not keypair_a.public.verify(b"tampered", sig)

    def test_tampered_signature_rejected(self, keypair_a):
        sig = bytearray(keypair_a.private.sign(b"m"))
        sig[10] ^= 0xFF
        assert not keypair_a.public.verify(b"m", bytes(sig))

    def test_wrong_key_rejected(self, keypair_a, keypair_b):
        sig = keypair_a.private.sign(b"m")
        assert not keypair_b.public.verify(b"m", sig)

    def test_wrong_length_signature_rejected(self, keypair_a):
        assert not keypair_a.public.verify(b"m", b"\x01" * 17)

    def test_signature_length_is_modulus_size(self, keypair_a):
        assert len(keypair_a.private.sign(b"m")) == keypair_a.public.byte_size

    @given(message=st.binary(max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_arbitrary_messages(self, keypair_a, message):
        sig = keypair_a.private.sign(message)
        assert keypair_a.public.verify(message, sig)


class TestEncryption:
    def test_encrypt_decrypt_roundtrip(self, keypair_a, rng):
        secret = b"session-key-material-here"
        ct = keypair_a.public.encrypt(secret, rng)
        assert keypair_a.private.decrypt(ct) == secret

    def test_ciphertext_differs_from_plaintext(self, keypair_a, rng):
        ct = keypair_a.public.encrypt(b"abc", rng)
        assert b"abc" not in ct

    def test_randomised_padding(self, keypair_a, rng):
        assert keypair_a.public.encrypt(b"abc", rng) != keypair_a.public.encrypt(b"abc", rng)

    def test_oversized_plaintext_rejected(self, keypair_a, rng):
        limit = keypair_a.public.byte_size - 11
        keypair_a.public.encrypt(b"x" * limit, rng)  # fits
        with pytest.raises(SecurityError):
            keypair_a.public.encrypt(b"x" * (limit + 1), rng)

    def test_tampered_ciphertext_rejected(self, keypair_a, rng):
        ct = bytearray(keypair_a.public.encrypt(b"abc", rng))
        ct[5] ^= 0xFF
        with pytest.raises(SecurityError):
            keypair_a.private.decrypt(bytes(ct))

    def test_wrong_length_ciphertext_rejected(self, keypair_a):
        with pytest.raises(SecurityError):
            keypair_a.private.decrypt(b"\x00" * 10)

    def test_empty_plaintext(self, keypair_a, rng):
        assert keypair_a.private.decrypt(keypair_a.public.encrypt(b"", rng)) == b""

    @given(secret=st.binary(max_size=50), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_arbitrary_secrets(self, keypair_a, secret, seed):
        local_rng = np.random.default_rng(seed)
        assert keypair_a.private.decrypt(keypair_a.public.encrypt(secret, local_rng)) == secret
