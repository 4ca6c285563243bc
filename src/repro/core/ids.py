"""Deterministic UUID generation.

The discovery protocol tags every request with a UUID (paper section 3)
and brokers deduplicate on it (section 4).  For reproducible experiments
we cannot use :func:`uuid.uuid4` -- it draws from OS entropy -- so this
module provides an :class:`IdGenerator` seeded from the experiment's
master seed.  The IDs it emits follow the RFC 4122 version-4 textual
layout, purely so that logs and traces look familiar.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IdGenerator"]

#: IDs prefetched per underlying RNG call.  PCG64 emits the same byte
#: stream whether drawn 16 bytes at a time or in one block, so
#: prefetching changes no emitted UUID -- it only amortises the numpy
#: call and the formatting over the batch.
_BATCH = 16


def _layout(batch: int) -> np.ndarray:
    """Where each character of ``batch`` formatted ids, written back to
    back, comes from in the batch's hex digits plus one trailing dash.

    Hex digit ``j`` of id ``k`` is digit ``32 * k + j`` of the batch and
    sits at column ``j`` plus the dashes before it (8-4-4-4-12); the four
    dash columns read the trailing dash.
    """
    columns = [j + sum(j >= d for d in (8, 12, 16, 20)) for j in range(32)]
    layout = np.full((batch, 36), 32 * batch, dtype=np.intp)
    for k in range(batch):
        layout[k, columns] = np.arange(32 * k, 32 * k + 32)
    return layout.ravel()


_LAYOUT = _layout(_BATCH)


class IdGenerator:
    """Produce RFC-4122-shaped version-4 UUID strings deterministically.

    Parameters
    ----------
    rng:
        Source of randomness.  Passing generators derived from one
        experiment seed makes every run bit-for-bit reproducible.

    Examples
    --------
    >>> gen = IdGenerator(np.random.default_rng(7))
    >>> a, b = gen(), gen()
    >>> a != b
    True
    >>> len(a), a[14]
    (36, '4')
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()
        # The current batch's ids, last one first (``pop`` hands them out).
        self._ids: list[str] = []

    def __call__(self) -> str:
        ids = self._ids
        if not ids:
            ids = self._ids = self._draw()
        return ids.pop()

    def _draw(self) -> list[str]:
        """Format the next ``_BATCH`` UUIDs from one draw, last one first."""
        b = bytearray(self._rng.bytes(16 * _BATCH))
        # Force version 4 / variant 10xx bits like uuid4 does.
        b[6::16] = bytes((x & 0x0F) | 0x40 for x in b[6::16])
        b[8::16] = bytes((x & 0x3F) | 0x80 for x in b[8::16])
        # Lay out the 8-4-4-4-12 text of the whole batch in one gather:
        # identical output to str(uuid.UUID(bytes=...)) per id, without
        # a UUID object or five string slices per id.
        digits = np.frombuffer((b.hex() + "-").encode(), np.uint8)
        text = digits[_LAYOUT].tobytes().decode()
        return [text[i : i + 36] for i in range(36 * (_BATCH - 1), -1, -36)]

    def spawn(self) -> "IdGenerator":
        """Derive an independent child generator.

        Each child advances its own stream, so handing one to every node
        keeps their ID sequences independent of call interleaving.
        """
        return IdGenerator(np.random.default_rng(self._rng.integers(0, 2**63)))
