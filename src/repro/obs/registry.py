"""Unified metrics: counters, gauges, histograms behind one namespace.

The registry is the single namespaced home for what were scattered
ad-hoc counters (every emitted event as ``obs.event.<name>``,
``requests_shed``, ``busy_received``, breaker trips, ingress-queue
depth/peak).  It is runtime-agnostic: a :class:`MetricsRegistry` never
reads a clock itself, so the same code path serves
:class:`~repro.runtime.sim.SimRuntime` (virtual time) and
:class:`~repro.runtime.aio.AioRuntime` (wall time) -- timestamps only
enter through what callers observe.

Determinism: histogram bucket bounds are **fixed at creation** (default
:data:`DEFAULT_BUCKETS`), never adapted to the data, so two runs that
observe the same values produce bit-identical snapshots.  Reads go
through :meth:`MetricsRegistry.read`, which raises ``KeyError`` for an
unknown name -- a misspelled counter fails loudly instead of reading
zero forever.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Latency-flavoured bucket upper bounds in seconds; chosen to resolve
#: both sub-millisecond sim hops and multi-second live rounds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def read(self) -> int:
        return self.value


class Gauge:
    """A metric that can move both ways (queue depth, lease count)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        return self.value


class Histogram:
    """Fixed-bound cumulative histogram (Prometheus ``le`` semantics).

    ``bounds`` are inclusive upper edges: an observation equal to a
    bound lands in that bound's bucket; anything above the last bound
    counts only toward ``+Inf`` (i.e. ``count``).
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name!r} bounds must be strictly increasing")
        self.name = name
        self.bounds = ordered
        self.bucket_counts = [0] * len(ordered)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        index = bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.bucket_counts[index] += 1

    def cumulative(self) -> tuple[int, ...]:
        """Per-bound cumulative counts, Prometheus ``le`` style."""
        out, running = [], 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Upper-bound quantile estimate from the fixed buckets.

        Returns the smallest bucket bound covering the ``q``-quantile
        (the last bound when the quantile falls in ``+Inf``): a
        conservative read at bucket resolution, matching what the live
        SLO monitor computes from windowed bucket deltas.
        """
        from repro.obs.live import quantile_from_buckets

        return quantile_from_buckets(
            list(self.bounds), list(self.cumulative()), self.count, q
        )

    def read(self) -> dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.cumulative()),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """One namespace for every metric a world produces."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._get_or_create(name, lambda: Histogram(name, bounds), "histogram")
        if tuple(float(b) for b in bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different bounds"
            )
        return metric

    def read(self, name: str):
        """Strict read: unknown names raise ``KeyError``, never 0.

        This is the fix for the silent duck-typing failure mode where a
        typo'd counter name reads as zero forever.
        """
        metric = self._metrics.get(name)
        if metric is None:
            raise KeyError(f"unknown metric {name!r}; registered: {sorted(self._metrics)}")
        return metric.read()

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> tuple[Counter | Gauge | Histogram, ...]:
        return tuple(self._metrics[name] for name in sorted(self._metrics))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-serialisable view of every metric, sorted by name."""
        return {
            name: {"kind": metric.kind, "value": metric.read()}
            for name, metric in sorted(self._metrics.items())
        }
