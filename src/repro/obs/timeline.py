"""Causally-ordered, cross-node timelines for one discovery request.

Flight-recorder rings are per-node and unordered across nodes; this
module merges them into a single per-request timeline: which BDN
injected the request where, which brokers suppressed the duplicate,
and which UDP responses were lost vs. suppressed vs. late.  A ring
holds a request's causal steps beside the facts that carry its trace
id: ``request_sent`` opens a run and ``discover_done`` closes it; a
broker's leg is ``discovery_response`` (or ``…_suppressed``) and, at
the requester, ``response_received`` or ``late``.

Ordering: events sort by ``(time, emission seq, causal rank, node)``.
The emission sequence is shared across all recorders of one world, so
same-instant events (common in the simulator, where several hops can
share one virtual timestamp) keep the order they actually happened in.
The causal rank is the fallback for events without sequence numbers
(hand-built fixtures, legacy snapshots): it breaks ties the way the
protocol flows (a ``request_sent`` precedes the matching ``recv``; an
``enqueue`` precedes its ``dequeue``).

The requester emits a ``phase`` span at exactly the points it calls
:meth:`PhaseTimer.begin <repro.discovery.phases.PhaseTimer.begin>`,
reading the same runtime clock, so the timeline's per-phase shares
agree with :meth:`PhaseTimer.percentages` (identically under the
simulated runtime, within measurement noise under AioRuntime).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.obs.recorder import SpanEvent

__all__ = [
    "normalize_trace_id",
    "merge_events",
    "RequestTimeline",
    "assemble",
    "assemble_from_snapshot",
    "complete_request_ids",
    "phase_agreement",
    "render_ascii",
]

#: Same-timestamp tiebreak, in protocol-flow order.
_CAUSAL_RANK: dict[str, int] = {
    "phase": 0,
    "send": 1,
    "request_sent": 1,
    "request_multicast": 1,
    "request_cached_targets": 1,
    "bdn_busy": 2,
    "bdn_catchup_refused": 3,
    "inject": 4,
    "recv": 5,
    "response_received": 5,
    "bdn_busy_received": 5,
    "enqueue": 6,
    "dequeue": 7,
    "dup_suppressed": 8,
    "discovery_response_suppressed": 9,
    "discovery_response": 10,
    "late": 11,
    "discover_done": 12,
    "discover_failed": 12,
}

#: A run opens with a phase or a transmission and closes with one of two facts.
_OPENS = frozenset({"phase", "send", "request_sent", "request_multicast", "request_cached_targets"})
_CLOSES = frozenset({"discover_done", "discover_failed"})
_BAR_WIDTH = 40
_MAX_EVENTS = 80


def normalize_trace_id(raw: str) -> str:
    """Strip the ``#<attempt>`` suffix brokers append on the pub-sub path."""
    return raw.partition("#")[0]


def _sort_key(event: SpanEvent) -> tuple[float, int, int, str]:
    return (event.time, event.seq, _CAUSAL_RANK.get(event.event, 50), event.node)


def merge_events(
    sources: Iterable[Iterable[SpanEvent]], trace_id: str | None = None
) -> tuple[SpanEvent, ...]:
    """Merge per-node event streams into one causal order.

    ``sources`` should be iterated in a deterministic order (the
    callers sort recorders by node name); Python's stable sort then
    keeps per-node emission order for exact ties.
    """
    pool: list[SpanEvent] = []
    for events in sources:
        for event in events:
            if trace_id is None or normalize_trace_id(event.trace_id) == trace_id:
                pool.append(event)
    pool.sort(key=_sort_key)
    return tuple(pool)


class RequestTimeline:
    """The merged, ordered event record of one traced request."""

    __slots__ = ("trace_id", "events")

    def __init__(self, trace_id: str, events: tuple[SpanEvent, ...]) -> None:
        self.trace_id = trace_id
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def start(self) -> float:
        return self.events[0].time if self.events else 0.0

    @property
    def end(self) -> float:
        return self.events[-1].time if self.events else 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted({e.node for e in self.events}))

    def _detail(self, event: SpanEvent, key: str) -> str | None:
        for k, v in event.detail:
            if k == key:
                return v
        return None

    def is_complete(self) -> bool:
        """A complete timeline saw the request start and the run close."""
        kinds = {e.event for e in self.events}
        return bool(kinds & _CLOSES and kinds & _OPENS)

    def phase_durations(self) -> dict[str, float]:
        """Seconds spent in each requester phase, from ``phase`` spans.

        The open phase at each ``phase`` span ends where the next one
        begins; the last phase ends where the run closes (falling back
        to the last event seen).  Mirrors
        :meth:`repro.discovery.phases.PhaseTimer.durations`.
        """
        marks: list[tuple[float, str]] = []
        closed_at: float | None = None
        for event in self.events:
            if event.event == "phase":
                name = self._detail(event, "phase")
                if name:
                    marks.append((event.time, name))
            elif event.event in _CLOSES and closed_at is None:
                closed_at = event.time
        if not marks:
            return {}
        if closed_at is None:
            closed_at = max(self.end, marks[-1][0])
        durations: dict[str, float] = {}
        for (start, name), (following, _) in zip(marks, marks[1:] + [(closed_at, "")]):
            durations[name] = durations.get(name, 0.0) + max(0.0, following - start)
        return durations

    def phase_percentages(self) -> dict[str, float]:
        durations = self.phase_durations()
        total = sum(durations.values())
        if total <= 0:
            return {name: 0.0 for name in durations}
        return {name: 100.0 * value / total for name, value in durations.items()}

    def response_fates(self) -> dict[str, str]:
        """Per-broker outcome of the response leg of this request.

        ``received``
            the requester saw the DiscoveryResponse;
        ``late``
            it arrived after the run closed (counted, then discarded);
        ``suppressed``
            the responder withheld it under load (never sent);
        ``lost``
            it was sent but never arrived (dropped on the UDP return
            path).
        """
        responded: set[str] = set()
        suppressed: set[str] = set()
        received: set[str] = set()
        late: set[str] = set()
        for event in self.events:
            broker = self._detail(event, "broker") or event.node
            if event.event == "discovery_response":
                responded.add(broker)
            elif event.event == "discovery_response_suppressed":
                suppressed.add(broker)
            elif event.event == "late":
                late.add(broker)
            elif event.event == "response_received":
                received.add(broker)
        fates: dict[str, str] = {}
        for broker in sorted(responded | suppressed | received | late):
            if broker in received:
                fates[broker] = "received"
            elif broker in late:
                fates[broker] = "late"
            elif broker in suppressed:
                fates[broker] = "suppressed"
            else:
                fates[broker] = "lost"
        return fates

    def duplicate_suppressions(self) -> tuple[str, ...]:
        """Nodes that discarded a duplicate copy of this request."""
        return tuple(
            sorted({e.node for e in self.events if e.event == "dup_suppressed"})
        )


def _recorder_streams(obs) -> list[tuple[SpanEvent, ...]]:
    return [obs.recorders[name].snapshot() for name in sorted(obs.recorders)]


def assemble(obs, trace_id: str) -> RequestTimeline:
    """Merge every flight recorder in ``obs`` into one request timeline."""
    trace_id = normalize_trace_id(trace_id)
    return RequestTimeline(trace_id, merge_events(_recorder_streams(obs), trace_id))


def assemble_from_snapshot(
    snapshot: Mapping[str, object], trace_id: str
) -> RequestTimeline:
    """Rebuild a timeline from an exported telemetry snapshot dict.

    Accepts the dict produced by
    :func:`repro.obs.export.telemetry_snapshot` (e.g. parsed back from
    the live-smoke telemetry artifact).
    """
    trace_id = normalize_trace_id(trace_id)
    rings: Mapping[str, object] = snapshot.get("rings", {})  # type: ignore[assignment]
    streams = []
    for node in sorted(rings):
        payload = rings[node]
        events = payload.get("events", []) if isinstance(payload, Mapping) else []
        streams.append([SpanEvent.from_dict(e) for e in events])
    return RequestTimeline(trace_id, merge_events(streams, trace_id))


def complete_request_ids(snapshot_or_obs) -> tuple[str, ...]:
    """Trace ids with a complete (started AND closed) request timeline."""
    if isinstance(snapshot_or_obs, Mapping):
        rings: Mapping[str, object] = snapshot_or_obs.get("rings", {})  # type: ignore[assignment]
        streams = [
            [
                SpanEvent.from_dict(e)
                for e in (rings[node].get("events", []) if isinstance(rings[node], Mapping) else [])
            ]
            for node in sorted(rings)
        ]
    else:
        streams = _recorder_streams(snapshot_or_obs)
    merged = merge_events(streams)
    ids = sorted(
        {
            normalize_trace_id(e.trace_id)
            for e in merged
            if not e.trace_id.startswith(("ping:", "ad:"))
        }
    )
    complete = []
    for trace_id in ids:
        timeline = RequestTimeline(trace_id, merge_events([merged], trace_id))
        if timeline.is_complete():
            complete.append(trace_id)
    return tuple(complete)


def phase_agreement(
    timeline: RequestTimeline, reference: Mapping[str, float]
) -> float:
    """Largest |timeline% - reference%| over all phases, in points.

    ``reference`` is a :meth:`PhaseTimer.percentages` mapping.  The
    acceptance bar for this subsystem is a return value below 1.0.
    """
    own = timeline.phase_percentages()
    names = set(own) | {k for k, v in reference.items() if v > 0}
    if not names:
        return 0.0
    return max(abs(own.get(n, 0.0) - float(reference.get(n, 0.0))) for n in names)


def render_ascii(timeline: RequestTimeline) -> str:
    """ASCII phase chart + causal event log, mirroring Figures 9/11.

    A 100 % phase bar is :data:`_BAR_WIDTH` characters; the log shows the
    first :data:`_MAX_EVENTS` events.
    """
    lines = [
        f"Trace {timeline.trace_id}",
        f"  nodes : {', '.join(timeline.nodes()) or '-'}",
        f"  events: {len(timeline)}   span: {timeline.duration * 1e3:.3f} ms",
        "",
        f"{'Sub-activity':<28} {'% of total':>10}",
    ]
    percentages = timeline.phase_percentages()
    for name, pct in sorted(percentages.items(), key=lambda kv: -kv[1]):
        bar = "#" * max(1, round(pct / 100.0 * _BAR_WIDTH)) if pct > 0 else ""
        lines.append(f"{name:<28} {pct:>9.1f}% {bar}")
    fates = timeline.response_fates()
    if fates:
        lines.append("")
        lines.append("Response fates:")
        for broker, fate in fates.items():
            lines.append(f"  {broker:<26} {fate}")
    dups = timeline.duplicate_suppressions()
    if dups:
        lines.append(f"Duplicates suppressed at: {', '.join(dups)}")
    lines.append("")
    lines.append(f"{'t (ms)':>10}  {'node':<18} {'event':<14} detail")
    start = timeline.start
    shown = timeline.events[:_MAX_EVENTS]
    for event in shown:
        detail = " ".join(f"{k}={v}" for k, v in event.detail)
        if event.hop:
            detail = f"hop={event.hop} {detail}".strip()
        lines.append(
            f"{(event.time - start) * 1e3:>10.3f}  {event.node:<18} "
            f"{event.event:<14} {detail}"
        )
    if len(timeline.events) > len(shown):
        lines.append(f"  ... {len(timeline.events) - len(shown)} more events elided")
    return "\n".join(lines)
