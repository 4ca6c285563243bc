"""Number theory primitives for the RSA implementation.

Deterministic given an explicit ``numpy.random.Generator``, so key
generation in tests is reproducible.  Miller-Rabin with 40 rounds gives
a false-prime probability below 4^-40, far beyond what the benchmarks
need.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_probable_prime", "generate_prime", "modinv", "egcd"]

#: Random Miller-Rabin witnesses drawn for large candidates.
_ROUNDS = 40
# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def _rand_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrarily large n."""
    if n <= 0:
        raise ValueError("n must be positive")
    nbits = n.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        candidate = int.from_bytes(rng.bytes(nbytes), "big")
        candidate >>= nbytes * 8 - nbits
        if candidate < n:
            return candidate


def is_probable_prime(n: int, rng: np.random.Generator | None = None) -> bool:
    """Miller-Rabin primality test.

    Uses the first few small primes as fixed witnesses plus random
    witnesses; for n below 3.3e24 the fixed witnesses alone are a
    deterministic test.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a >= n - 1:
            continue
        if witness_composite(a):
            return False
    if rng is not None:
        for _ in range(_ROUNDS):
            a = 2 + _rand_below(rng, n - 3)
            if witness_composite(a):
                return False
    return True


def generate_prime(bits: int, rng: np.random.Generator) -> int:
    """A random ``bits``-bit probable prime (top two bits set).

    Setting the two top bits guarantees the product of two such primes
    has exactly ``2*bits`` bits, which RSA key generation relies on.
    """
    if bits < 8:
        raise ValueError("bits must be >= 8")
    while True:
        candidate = int.from_bytes(rng.bytes((bits + 7) // 8), "big")
        candidate |= 1  # odd
        candidate |= 1 << (bits - 1)  # exact bit length
        candidate |= 1 << (bits - 2)  # product has 2*bits bits
        candidate &= (1 << bits) - 1
        if is_probable_prime(candidate, rng):
            return candidate


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with ``a*x + b*y == g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises if not coprime."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return x % m
