"""Tests for the stream cipher and HMAC."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SecurityError
from repro.security.cipher import (
    hmac_sha256,
    stream_decrypt,
    stream_encrypt,
)

KEY = bytes(range(32))
KEY2 = bytes(range(1, 33))
NONCE = bytes(range(16))
NONCE2 = bytes(range(2, 18))


class TestStreamCipher:
    def test_roundtrip(self):
        pt = b"hello broker discovery"
        assert stream_decrypt(KEY, NONCE, stream_encrypt(KEY, NONCE, pt)) == pt

    def test_ciphertext_differs(self):
        pt = b"x" * 64
        assert stream_encrypt(KEY, NONCE, pt) != pt

    def test_wrong_key_garbles(self):
        ct = stream_encrypt(KEY, NONCE, b"secret message!!")
        assert stream_decrypt(KEY2, NONCE, ct) != b"secret message!!"

    def test_wrong_nonce_garbles(self):
        ct = stream_encrypt(KEY, NONCE, b"secret message!!")
        assert stream_decrypt(KEY, NONCE2, ct) != b"secret message!!"

    def test_length_preserved(self):
        for n in (0, 1, 31, 32, 33, 1000):
            assert len(stream_encrypt(KEY, NONCE, b"a" * n)) == n

    def test_key_size_enforced(self):
        with pytest.raises(SecurityError):
            stream_encrypt(b"short", NONCE, b"x")

    def test_nonce_size_enforced(self):
        with pytest.raises(SecurityError):
            stream_encrypt(KEY, b"short", b"x")

    def test_distinct_nonces_distinct_streams(self):
        pt = b"\x00" * 64
        assert stream_encrypt(KEY, NONCE, pt) != stream_encrypt(KEY, NONCE2, pt)

    @given(pt=st.binary(max_size=500))
    def test_property_roundtrip(self, pt):
        assert stream_decrypt(KEY, NONCE, stream_encrypt(KEY, NONCE, pt)) == pt


class TestHmac:
    def test_deterministic(self):
        assert hmac_sha256(KEY, b"data") == hmac_sha256(KEY, b"data")

    def test_data_sensitivity(self):
        assert hmac_sha256(KEY, b"data") != hmac_sha256(KEY, b"datb")

    def test_key_sensitivity(self):
        assert hmac_sha256(KEY, b"data") != hmac_sha256(KEY2, b"data")

    def test_tag_length(self):
        assert len(hmac_sha256(KEY, b"")) == 32
