"""Broker usage metrics and the weighted selection score.

A discovery response carries *"usage metric information ... the total
number of active concurrent connections to the broker, the CPU and
memory utilizations at the broker"* (paper section 5.1).  The client
turns those metrics into a scalar weight with the formula the paper
prints in section 9::

    weight  = 0.0
    weight += (freemem / totalmem) * WEIGHTAGE_FREE_TO_TOTAL_MEMORY
    weight += (totalmem / (1024 * 1024)) * WEIGHTAGE_TOTAL_MEMORY
    weight -= numlinks * WEIGHTAGE_NUM_LINKS
    # OTHER factors may be similarly added

Higher weight = more attractive broker.  :class:`WeightConfig` exposes
every factor so experiments can sweep them (the paper notes the values
are configurable and let a client "give preference for a specific
metric with respect to other factors").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

__all__ = ["UsageMetrics", "WeightConfig", "broker_weight", "OverloadStats"]

_MB = 1024 * 1024


@dataclass(slots=True)
class UsageMetrics:
    """A snapshot of load at one broker, as shipped in a discovery response.

    Attributes
    ----------
    free_memory:
        Bytes of free JVM-heap-equivalent memory at the broker.
    total_memory:
        Bytes of total memory available to the broker process.
    num_links:
        Broker-to-broker links the broker currently maintains.
    num_connections:
        Active concurrent client connections.
    cpu_load:
        Normalised CPU utilisation in ``[0, 1]``.
    queue_depth:
        Messages waiting in (or being served by) the broker's ingress
        queue at snapshot time.  ``0`` for brokers without a service
        model -- the pre-overload behaviour, and the default.
    """

    free_memory: Annotated[int, "Q"]  # wire kinds: repro.core.messages
    total_memory: Annotated[int, "Q"]
    num_links: Annotated[int, "I"]
    num_connections: Annotated[int, "I"]
    cpu_load: Annotated[float, "d"] = 0.0
    queue_depth: Annotated[int, "I"] = 0

    def __post_init__(self) -> None:
        if self.total_memory <= 0:
            raise ValueError(f"total_memory must be > 0, got {self.total_memory}")
        if not 0 <= self.free_memory <= self.total_memory:
            raise ValueError(
                f"free_memory must be in [0, total_memory], got "
                f"{self.free_memory} / {self.total_memory}"
            )
        if self.num_links < 0 or self.num_connections < 0:
            raise ValueError("link/connection counts must be non-negative")
        if not 0.0 <= self.cpu_load <= 1.0:
            raise ValueError(f"cpu_load must be in [0, 1], got {self.cpu_load}")
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be non-negative, got {self.queue_depth}")

    @property
    def memory_fraction_free(self) -> float:
        """``free_memory / total_memory`` in ``[0, 1]``."""
        return self.free_memory / self.total_memory


@dataclass(frozen=True, slots=True)
class WeightConfig:
    """Configurable factor weights for :func:`broker_weight`.

    The defaults reproduce a sensible instantiation of the paper's
    formula: memory headroom dominates, raw memory size contributes a
    small bonus, and every broker-to-broker link, client connection and
    point of CPU load subtracts.

    Attributes
    ----------
    free_to_total_memory:
        Multiplier on the free/total memory ratio ("higher the better").
    total_memory_mb:
        Multiplier on total memory expressed in MiB ("higher the
        better" -- a big broker can absorb a new client).
    num_links:
        Penalty per broker link ("lower the better").
    num_connections:
        Penalty per active client connection (an "OTHER factor" in the
        paper's comment; connection count is explicitly carried in the
        response).
    cpu_load:
        Penalty on the normalised CPU load, another "OTHER factor".
    queue_depth:
        Penalty per queued ingress message, the overload-model "OTHER
        factor": a broker whose service queue is backed up answers (and
        accepts clients) late, so requesters steer away from it.  The
        factor contributes nothing when ``queue_depth`` is 0, which is
        every broker without a service model, so pre-overload scores
        are unchanged.
    delay_penalty_per_ms:
        Penalty per millisecond of NTP-estimated one-way delay, applied
        by the target-set selection (section 6 bases the target set on
        "the computed delays and usage metrics"; the delay enters the
        combined score through this factor).
    """

    free_to_total_memory: float = 100.0
    total_memory_mb: float = 0.05
    num_links: float = 1.0
    num_connections: float = 1.0
    cpu_load: float = 25.0
    queue_depth: float = 1.0
    delay_penalty_per_ms: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "free_to_total_memory",
            "total_memory_mb",
            "num_links",
            "num_connections",
            "cpu_load",
            "queue_depth",
            "delay_penalty_per_ms",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"weight factor {name!r} must be non-negative")


DEFAULT_WEIGHTS = WeightConfig()


def broker_weight(metrics: UsageMetrics, config: WeightConfig = DEFAULT_WEIGHTS) -> float:
    """Score a broker from its usage metrics; higher is more attractive.

    This is a direct transcription of the paper's section-9 snippet with
    the two "OTHER factors" (connection count and CPU load) added as
    penalties, since the response format carries both.

    Examples
    --------
    An idle broker outscores a loaded twin:

    >>> idle = UsageMetrics(900 * _MB, 1024 * _MB, num_links=1, num_connections=0)
    >>> busy = UsageMetrics(100 * _MB, 1024 * _MB, num_links=6, num_connections=40)
    >>> broker_weight(idle) > broker_weight(busy)
    True
    """
    w = 0.0
    # Higher the better.
    w += metrics.memory_fraction_free * config.free_to_total_memory
    w += (metrics.total_memory / _MB) * config.total_memory_mb
    # Lower the better.
    w -= metrics.num_links * config.num_links
    w -= metrics.num_connections * config.num_connections
    w -= metrics.cpu_load * config.cpu_load
    w -= metrics.queue_depth * config.queue_depth
    return w


@dataclass(frozen=True, slots=True)
class OverloadStats:
    """Aggregated overload-protection counters across a world's nodes.

    One row set for the experiments harness and report: how deep queues
    got, what was dropped or shed, how often requesters were told to
    back off, and how often circuit breakers tripped.  This module
    stays free of simnet/discovery imports -- nodes are plain objects
    exposing the expected counters, and a missing counter raises
    ``AttributeError`` instead of reading zero forever.

    Attributes
    ----------
    queue_depth:
        Sum of current ingress-queue depths (waiting + in service).
    queue_peak:
        Largest single-queue depth observed anywhere.
    queue_overflows:
        Messages dropped because an ingress queue was full.
    queue_served:
        Messages that completed service.
    requests_shed:
        Discovery requests refused by BDN admission control.
    responses_suppressed:
        Discovery responses withheld by loaded brokers.
    busy_received:
        ``DiscoveryBusy`` messages observed by requesters.
    breaker_trips:
        Circuit-breaker closed/half-open -> open transitions.
    retries_denied:
        Retransmissions refused because a retry budget was empty.
    """

    queue_depth: int = 0
    queue_peak: int = 0
    queue_overflows: int = 0
    queue_served: int = 0
    requests_shed: int = 0
    responses_suppressed: int = 0
    busy_received: int = 0
    breaker_trips: int = 0
    retries_denied: int = 0

    @classmethod
    def gather(cls, bdns=(), brokers=(), responders=(), clients=()) -> "OverloadStats":
        """Collect the counters from live nodes by plain attribute access."""
        depth = peak = overflows = served = 0
        for node in (*bdns, *brokers):
            queue = node.ingress
            if queue is not None:
                depth += queue.depth
                peak = max(peak, queue.max_depth)
                overflows += queue.overflows
                served += queue.served
        return cls(
            queue_depth=depth,
            queue_peak=peak,
            queue_overflows=overflows,
            queue_served=served,
            requests_shed=sum(b.requests_shed for b in bdns),
            responses_suppressed=sum(r.responses_suppressed for r in responders),
            busy_received=sum(c.busy_received for c in clients),
            breaker_trips=sum(c.breaker_trips for c in clients),
            retries_denied=sum(c.retries_denied for c in clients),
        )
