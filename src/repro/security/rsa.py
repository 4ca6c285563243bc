"""Textbook-correct RSA with PKCS#1 v1.5-style padding.

Implements exactly what the 2005-era Java security stack the paper
timed would have used underneath: RSA keypairs, EMSA-PKCS1-v1_5
signatures over SHA-256 digests, and RSAES-PKCS1-v1_5 encryption for
small payloads (we only ever encrypt session keys; bulk data goes
through the stream cipher).

.. warning::
   This is a research reproduction, not a hardened cryptographic
   library -- no blinding, no constant-time guarantees.  The point is
   that the *work* (modular exponentiation at realistic key sizes) is
   real, so the Figure 13/14 timings measure genuine cryptography.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core.errors import SecurityError
from repro.security.numtheory import generate_prime, modinv

__all__ = ["RSAPublicKey", "RSAPrivateKey", "RSAKeyPair", "generate_keypair"]

# DigestInfo prefix for SHA-256 (DER), as PKCS#1 v1.5 requires.
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")
_F4 = 65537


@dataclass(frozen=True, slots=True)
class RSAPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    @property
    def byte_size(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    # -- encryption ----------------------------------------------------
    def encrypt(self, plaintext: bytes, rng: np.random.Generator) -> bytes:
        """RSAES-PKCS1-v1_5 encryption of a short plaintext."""
        k = self.byte_size
        if len(plaintext) > k - 11:
            raise SecurityError(
                f"plaintext too long for RSA block: {len(plaintext)} > {k - 11}"
            )
        pad_len = k - 3 - len(plaintext)
        padding = bytearray()
        while len(padding) < pad_len:
            chunk = rng.bytes(pad_len - len(padding))
            padding.extend(b for b in chunk if b != 0)
        block = b"\x00\x02" + bytes(padding) + b"\x00" + plaintext
        m = int.from_bytes(block, "big")
        c = pow(m, self.e, self.n)
        return c.to_bytes(k, "big")

    # -- signature verification ----------------------------------------
    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify an EMSA-PKCS1-v1_5 SHA-256 signature."""
        k = self.byte_size
        if len(signature) != k:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        em = pow(s, self.e, self.n).to_bytes(k, "big")
        return em == _emsa_pkcs1v15(message, k)


@dataclass(frozen=True, slots=True)
class RSAPrivateKey:
    """An RSA private key with CRT components for fast exponentiation."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def byte_size(self) -> int:
        """Modulus size in bytes."""
        return (self.n.bit_length() + 7) // 8

    def public(self) -> RSAPublicKey:
        """The corresponding public key."""
        return RSAPublicKey(n=self.n, e=self.e)

    def _private_op(self, c: int) -> int:
        # CRT: ~4x faster than pow(c, d, n) directly.
        dp = self.d % (self.p - 1)
        dq = self.d % (self.q - 1)
        qinv = modinv(self.q, self.p)
        m1 = pow(c % self.p, dp, self.p)
        m2 = pow(c % self.q, dq, self.q)
        h = (qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    # -- decryption -----------------------------------------------------
    def decrypt(self, ciphertext: bytes) -> bytes:
        """RSAES-PKCS1-v1_5 decryption."""
        k = self.byte_size
        if len(ciphertext) != k:
            raise SecurityError(f"ciphertext must be {k} bytes, got {len(ciphertext)}")
        c = int.from_bytes(ciphertext, "big")
        if c >= self.n:
            raise SecurityError("ciphertext out of range")
        block = self._private_op(c).to_bytes(k, "big")
        if block[:2] != b"\x00\x02":
            raise SecurityError("bad PKCS#1 encryption block")
        try:
            sep = block.index(0, 2)
        except ValueError:
            raise SecurityError("bad PKCS#1 encryption block") from None
        if sep < 10:
            raise SecurityError("bad PKCS#1 encryption block")
        return block[sep + 1 :]

    # -- signing ----------------------------------------------------------
    def sign(self, message: bytes) -> bytes:
        """EMSA-PKCS1-v1_5 SHA-256 signature over ``message``."""
        k = self.byte_size
        em = _emsa_pkcs1v15(message, k)
        m = int.from_bytes(em, "big")
        s = self._private_op(m)
        return s.to_bytes(k, "big")


@dataclass(frozen=True, slots=True)
class RSAKeyPair:
    """Convenience bundle of a private key and its public half."""

    private: RSAPrivateKey
    public: RSAPublicKey


def _emsa_pkcs1v15(message: bytes, k: int) -> bytes:
    digest = hashlib.sha256(message).digest()
    t = _SHA256_PREFIX + digest
    if k < len(t) + 11:
        raise SecurityError(f"modulus too small for SHA-256 signatures ({k} bytes)")
    return b"\x00\x01" + b"\xff" * (k - len(t) - 3) + b"\x00" + t


def generate_keypair(bits: int = 1024, rng: np.random.Generator | None = None) -> RSAKeyPair:
    """Generate an RSA keypair with an exactly ``bits``-bit modulus.

    1024 bits matches what a 2005 deployment (the paper's Pentium M
    measurements) would have used; tests use 512 for speed.
    """
    if bits < 256 or bits % 2:
        raise ValueError("bits must be an even number >= 256")
    if rng is None:
        rng = np.random.default_rng()
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % _F4 == 0:
            continue
        d = modinv(_F4, phi)
        private = RSAPrivateKey(n=n, e=_F4, d=d, p=p, q=q)
        return RSAKeyPair(private=private, public=private.public())
