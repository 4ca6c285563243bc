"""Per-node clocks and the NTP time service.

The paper's delay-estimation step depends on loosely synchronised
clocks: *"Timestamps in NaradaBrokering are based on the Network Time
Protocol (NTP) which ensures that every node in NaradaBrokering is
within 1-20 msecs of each other.  NTP services at nodes are initialized
during node initializations and generally take between 3-5 seconds
before the local clock offsets are computed"* (section 5).

We model that directly:

* :class:`Clock` -- a node's raw hardware clock with a fixed offset and
  a small rate skew relative to simulated true time.
* :class:`NTPService` -- after an initialisation delay drawn uniformly
  from [3, 5] s, the service computes an offset correction that leaves a
  residual error drawn uniformly from [1, 20] ms (random sign); it then
  serves corrected "UTC" timestamps.

Discovery responses carry ``utc()`` timestamps, so the requester's
one-way delay estimates inherit exactly the 1-20 ms error band the
paper claims -- good enough to shortlist a target set, not good enough
to pick the final broker, which is why the protocol finishes with real
UDP pings.
"""

from __future__ import annotations

import numpy as np

from repro.core.draws import uniform
from repro.runtime.api import Scheduler

__all__ = ["Clock", "NTPService"]

#: Bounds of the uniform NTP initialisation delay, seconds (paper: "3-5
#: seconds").
INIT_DELAY_RANGE = (3.0, 5.0)
#: Bounds of the magnitude of the post-sync residual error, seconds
#: (paper: 1-20 ms).
RESIDUAL_RANGE = (0.001, 0.020)


class Clock:
    """A node's raw hardware clock.

    ``raw()`` returns simulated true time distorted by a constant offset
    and a linear rate skew, i.e. ``raw(t) = t * (1 + skew) + offset``.

    Parameters
    ----------
    sim:
        The scheduler supplying true time (any
        :class:`~repro.runtime.api.Scheduler` -- virtual or wall-clock).
    offset:
        Constant offset in seconds (can be large; real hosts drift by
        seconds over weeks without NTP).
    skew:
        Fractional rate error, e.g. ``50e-6`` for 50 ppm.
    """

    def __init__(self, sim: Scheduler, offset: float = 0.0, skew: float = 0.0) -> None:
        self._sim = sim
        self.offset = offset
        self.skew = skew

    @classmethod
    def random(cls, sim: Scheduler, rng: np.random.Generator) -> "Clock":
        """A clock with offset in [-5, 5] s and skew within 100 ppm."""
        return cls(
            sim,
            offset=uniform(rng, -5.0, 5.0),
            skew=uniform(rng, -100e-6, 100e-6),
        )

    def raw(self) -> float:
        """The uncorrected local clock reading."""
        return self._sim.now * (1.0 + self.skew) + self.offset

    def true_time(self) -> float:
        """The scheduler's true time -- for assertions/tests only, never for protocol logic."""
        return self._sim.now


class NTPService:
    """NTP correction for one node's clock.

    The service starts unsynchronised; :meth:`start` schedules the
    synchronisation to complete after a uniform 3-5 s initialisation.
    After sync, :meth:`utc` returns the corrected time with a residual
    error of 1-20 ms magnitude, per the paper.

    Parameters
    ----------
    sim, clock:
        The scheduler and the raw clock being disciplined.
    rng:
        Randomness for init delay (:data:`INIT_DELAY_RANGE`) and residual
        error (:data:`RESIDUAL_RANGE`).
    """

    def __init__(
        self,
        sim: Scheduler,
        clock: Clock,
        rng: np.random.Generator,
    ) -> None:
        self._sim = sim
        self._clock = clock
        self._rng = rng
        self._correction: float | None = None
        self._residual: float | None = None

    @property
    def residual_error(self) -> float | None:
        """Signed residual error in seconds after sync (None before)."""
        return self._residual

    def start(self) -> float:
        """Begin synchronisation; returns the initialisation delay used."""
        delay = uniform(self._rng, *INIT_DELAY_RANGE)
        self._sim.schedule(delay, self._complete_sync)
        return delay

    def sync_now(self) -> None:
        """Synchronise immediately (used by tests and warm-started nodes)."""
        self._complete_sync()

    def _complete_sync(self) -> None:
        magnitude = uniform(self._rng, *RESIDUAL_RANGE)
        sign = 1.0 if self._rng.random() < 0.5 else -1.0
        self._residual = sign * magnitude
        # The correction maps the raw clock to (true time + residual).
        # raw() + correction(t) == t + residual; we freeze the correction
        # at sync time, so residual drifts slightly with skew afterwards
        # -- just like a real NTP client between adjustments.
        now = self._sim.now
        self._correction = (now + self._residual) - self._clock.raw()

    def utc(self) -> float:
        """NTP-corrected UTC timestamp.

        Before synchronisation completes this returns the raw clock
        (real nodes do exactly that, which is why the paper waits out
        the 3-5 s init before trusting timestamps).
        """
        raw = self._clock.raw()
        if self._correction is None:
            return raw
        return raw + self._correction
