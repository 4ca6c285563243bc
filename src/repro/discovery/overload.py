"""Client-side overload protection primitives.

Three small, clock-driven mechanisms the discovery client composes when
a :class:`~repro.core.config.RetryPolicyConfig` is installed:

* :class:`TokenBucket` -- the retry *budget*.  Retransmissions spend
  tokens; the bucket refills at a fixed rate.  A storm of failures
  therefore degrades into a trickle of retries instead of a synchronous
  retransmit flood (the classic retry-storm amplification where every
  client's timer fires in lockstep and doubles the very overload that
  caused the timeouts).
* :class:`DecorrelatedJitterBackoff` -- the spacing between the retries
  the budget does allow, using the decorrelated-jitter recurrence
  ``sleep = min(cap, uniform(base, 3 * prev))``: exponential in
  expectation, but randomised so recovering clients do not thunder in
  phase.
* :class:`CircuitBreaker` -- per-BDN failure isolation.  After
  ``failures`` consecutive failures (silence or busy signals) the
  breaker *opens* and the BDN is skipped outright; after ``cooldown``
  it becomes *half-open* and exactly one probe is let through.  The
  probe's outcome either re-closes the breaker or re-opens it for
  another cooldown.

All three take the virtual clock as a callable and draw randomness only
from an injected generator, so behaviour under the simulator is
deterministic per seed.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.draws import uniform

__all__ = ["TokenBucket", "DecorrelatedJitterBackoff", "CircuitBreaker"]

Clock = Callable[[], float]


class TokenBucket:
    """A token bucket metering retry attempts.

    Starts full.  :meth:`try_acquire` takes one token if available,
    refilling lazily from the elapsed clock time first.
    """

    __slots__ = ("capacity", "refill_per_sec", "_clock", "_tokens", "_last")

    def __init__(self, capacity: int, refill_per_sec: float, clock: Clock) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if refill_per_sec <= 0:
            raise ValueError(f"refill_per_sec must be positive, got {refill_per_sec}")
        self.capacity = capacity
        self.refill_per_sec = refill_per_sec
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(
                float(self.capacity), self._tokens + elapsed * self.refill_per_sec
            )
        self._last = now

    def try_acquire(self) -> bool:
        """Spend one token; False (and no spend) if none is available."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class DecorrelatedJitterBackoff:
    """Decorrelated-jitter exponential backoff.

    Each :meth:`next` call returns ``min(cap, uniform(base, 3 * prev))``
    where ``prev`` is the previous return value (``base`` initially).
    :meth:`reset` starts a fresh sequence for a new discovery run.
    """

    __slots__ = ("base", "cap", "_rng", "_prev")

    def __init__(self, base: float, cap: float, rng: np.random.Generator) -> None:
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        if cap < base:
            raise ValueError(f"cap must be >= base, got {cap} < {base}")
        self.base = base
        self.cap = cap
        self._rng = rng
        self._prev = base

    def reset(self) -> None:
        self._prev = self.base

    def next(self) -> float:
        delay = min(self.cap, uniform(self._rng, self.base, self._prev * 3.0))
        self._prev = delay
        return delay


class CircuitBreaker:
    """A per-destination circuit breaker (closed / open / half-open).

    ``closed``
        Normal operation; :meth:`allow` is always True.  ``failures``
        *consecutive* failures trip the breaker open.
    ``open``
        :meth:`allow` is False until ``cooldown`` seconds pass.
    ``half-open``
        The first :meth:`allow` after the cooldown is True (the probe)
        and any further calls are False until the probe resolves --
        unless another full cooldown elapses first, in which case a new
        probe is granted (a lost probe must not wedge the breaker shut
        forever).  :meth:`record_success` re-closes the breaker;
        :meth:`record_failure` re-opens it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("failures", "cooldown", "_clock", "state", "_consecutive", "_opened_at", "trips")

    def __init__(self, failures: int, cooldown: float, clock: Clock) -> None:
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be positive, got {cooldown}")
        self.failures = failures
        self.cooldown = cooldown
        self._clock = clock
        self.state = self.CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self.trips = 0

    def allow(self) -> bool:
        """May a request be sent now?  Consumes the half-open probe."""
        if self.state == self.CLOSED:
            return True
        if self._clock() - self._opened_at >= self.cooldown:
            # Either OPEN past its cooldown, or HALF_OPEN whose probe
            # never resolved for another full cooldown: grant a probe.
            self.state = self.HALF_OPEN
            self._opened_at = self._clock()
            return True
        return False

    def available(self) -> bool:
        """Like :meth:`allow` but side-effect free (for invariants)."""
        if self.state == self.CLOSED:
            return True
        return self._clock() - self._opened_at >= self.cooldown

    def probe_now(self) -> None:
        """Make a non-closed breaker immediately probeable.

        Backdates the open timestamp by a full cooldown, so the next
        :meth:`allow` moves straight to half-open and grants its probe
        without waiting out the interval.  Used when out-of-band
        evidence (a replication-group leader hint naming this
        destination) says the destination is worth probing *now* -- a
        rejoined replica should not sit behind a stale open breaker.
        A closed breaker is untouched.
        """
        if self.state != self.CLOSED:
            self._opened_at = self._clock() - self.cooldown

    def record_success(self) -> None:
        self.state = self.CLOSED
        self._consecutive = 0

    def record_failure(self) -> None:
        self._consecutive += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED and self._consecutive >= self.failures
        ):
            self.state = self.OPEN
            self._opened_at = self._clock()
            self.trips += 1
