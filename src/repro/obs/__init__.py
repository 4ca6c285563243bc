"""``repro.obs``: the one event sink, its metrics registry and its exporters.

Three pillars (see ``docs/PROTOCOL.md`` § Observability):

1. **One way to say what happened** -- every node, fabric and ingress
   queue is handed the world's :class:`Observability` and emits into it
   through one method, in one checked vocabulary
   (:mod:`repro.obs.events`).  *Plain* events (``request_retransmit``,
   ``udp_drop``) are always counted and are logged when the sink keeps
   a trace.  *Causal* events carry a trace id + hop and exist only
   while the sink is *observing*: then Discovery{Request,Response,Busy},
   ping/pong and advertisements carry a trace flag + hop counter on the
   wire (the request UUID doubles as trace id) and every engine drops
   :class:`~repro.obs.recorder.SpanEvent` records into its node's
   bounded :class:`~repro.obs.recorder.FlightRecorder` ring.
2. **MetricsRegistry** -- one namespaced home for counters, gauges and
   fixed-bucket histograms, driven identically by the sim and aio
   runtimes through the :class:`~repro.runtime.api.Runtime` protocol
   (the registry only ever sees the runtime's clock).  Every event is
   counted there as ``obs.event.<name>``.
3. **Exporters + timeline assembly** -- :mod:`repro.obs.timeline`
   merges rings into causal per-request timelines;
   :mod:`repro.obs.export` renders JSON and Prometheus text.

Observing is **off by default**: a node with no sink, or with one that
is not observing, encodes byte-identical wire messages, keeps no ring,
publishes no engine metrics and draws no extra randomness -- the
golden-trace determinism suite pins this.
"""

from __future__ import annotations

from repro.obs.events import EVENTS, UnknownEventError
from repro.obs.live import DeltaEncoder, LiveTelemetry, RollingClusterView
from repro.obs.profiling import SamplingProfiler
from repro.obs.recorder import DEFAULT_RING_CAPACITY, FlightRecorder, Observability, SpanEvent
from repro.obs.registry import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.slo import SloConfig, SloMonitor, SloViolation

__all__ = [
    "Observability",
    "FlightRecorder",
    "SpanEvent",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_RING_CAPACITY",
    "DeltaEncoder",
    "EVENTS",
    "LiveTelemetry",
    "RollingClusterView",
    "SamplingProfiler",
    "SloConfig",
    "SloMonitor",
    "SloViolation",
    "UnknownEventError",
    "trace_context",
]


def trace_context(message) -> tuple[str, int] | None:
    """``(trace id, hop)`` of a traced wire message, else ``None``.

    Works on any message type: only those whose ``trace_flag`` is set
    (and which carry a ``uuid``) participate in a trace.
    """
    if not getattr(message, "trace_flag", False):
        return None
    uuid = getattr(message, "uuid", None) or getattr(message, "request_uuid", None)
    if uuid is None:
        return None
    return uuid.partition("#")[0], getattr(message, "trace_hop", 0)
