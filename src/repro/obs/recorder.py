"""The event sink, its record type and its per-node flight ring.

:meth:`Observability.emit` is the one place events enter: it validates
the name, bumps the name's counter and decides what is kept.  Every
kept event is a :class:`SpanEvent`.  One that carries the trace id and
hop of the request it belongs to lands in its node's
:class:`FlightRecorder` while the world is observing; a plain one also
lands in the sink's log (when the sink keeps one).  The ring is bounded
(old events are overwritten, with a ``dropped`` counter) so it can stay
attached to a long soak without growing.

The sink is clock-agnostic: it is handed a zero-argument callable
(virtual ``sim.now`` or the aio runtime's monotonic clock) and never
imports a runtime.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import count

from repro.obs.events import UnknownEventError, is_causal
from repro.obs.registry import Counter, MetricsRegistry

__all__ = ["Observability", "SpanEvent", "FlightRecorder", "DEFAULT_RING_CAPACITY"]

DEFAULT_RING_CAPACITY = 1024


def normalise_detail(detail: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """``detail`` as a sorted tuple of ``(key, str(value))`` pairs."""
    return tuple(sorted((k, str(v)) for k, v in detail.items()))


class SpanEvent:
    """One event: (when, what, where, which request, how deep).

    ``trace_id`` is empty (and ``hop`` 0) for an event about no traced
    request.  ``detail`` is a sorted tuple of ``(key, str(value))`` pairs
    (:func:`normalise_detail`), so events hash/compare by value and
    serialise trivially.

    ``seq`` is a monotonic emission number shared across all recorders
    of one :class:`~repro.obs.Observability`; several hops can share one
    virtual timestamp in the simulator, and the sequence recovers their
    true causal order (the runtimes are single-threaded, so emission
    order *is* causal order within a world).
    """

    __slots__ = ("time", "event", "node", "trace_id", "hop", "detail", "seq")

    def __init__(
        self,
        time: float,
        event: str,
        node: str,
        trace_id: str,
        hop: int = 0,
        detail: tuple[tuple[str, str], ...] = (),
        seq: int = 0,
    ) -> None:
        self.time = time
        self.event = event
        self.node = node
        self.trace_id = trace_id
        self.hop = hop
        self.detail = detail
        self.seq = seq

    def _key(self) -> tuple:
        return (self.time, self.event, self.node, self.trace_id, self.hop, self.detail)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpanEvent) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.detail)
        return (
            f"SpanEvent({self.time:.6f} {self.node} {self.event}"
            f" trace={self.trace_id} hop={self.hop}{extra})"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "time": self.time,
            "event": self.event,
            "node": self.node,
            "trace_id": self.trace_id,
            "hop": self.hop,
            "detail": dict(self.detail),
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> SpanEvent:
        detail = payload.get("detail", {})
        return cls(
            time=float(payload["time"]),  # type: ignore[arg-type]
            event=str(payload["event"]),
            node=str(payload["node"]),
            trace_id=str(payload["trace_id"]),
            hop=int(payload.get("hop", 0)),  # type: ignore[arg-type]
            detail=normalise_detail(dict(detail)),  # type: ignore[call-overload]
            seq=int(payload.get("seq", 0)),  # type: ignore[arg-type]
        )


class FlightRecorder:
    """Bounded ring buffer of one node's traced :class:`SpanEvent`."""

    __slots__ = ("node", "capacity", "dropped", "emitted", "_ring", "_next")

    def __init__(self, node: str, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.node = node
        self.capacity = capacity
        self.dropped = 0
        self.emitted = 0
        self._ring: list[SpanEvent] = []
        self._next = 0

    def put(
        self,
        time: float,
        event: str,
        trace_id: str,
        hop: int,
        detail: tuple[tuple[str, str], ...],
        seq: int,
    ) -> None:
        """Keep one event, overwriting the oldest once the ring is full."""
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(SpanEvent(time, event, self.node, trace_id, hop, detail, seq))
        else:
            # Recycle the slot being overwritten in place: a full ring
            # at steady state keeps an event without allocating a
            # SpanEvent.  snapshot() hands out copies, so recycled slots
            # are never visible outside the recorder.
            record = ring[self._next]
            record.time = time
            record.event = event
            record.trace_id = trace_id
            record.hop = hop
            record.detail = detail
            record.seq = seq
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1
        self.emitted += 1

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(self) -> tuple[SpanEvent, ...]:
        """Retained events in chronological (emission) order.

        Returns *copies*: ring slots are recycled in place once the ring
        wraps, so handing out the live objects would let later emissions
        rewrite a snapshot under its holder.
        """
        ring = self._ring
        if len(ring) < self.capacity or self._next == 0:
            items = ring
        else:
            items = ring[self._next :] + ring[: self._next]
        return tuple(
            SpanEvent(e.time, e.event, e.node, e.trace_id, e.hop, e.detail, e.seq)
            for e in items
        )

    def clear(self) -> None:
        self._ring.clear()
        self._next = 0


class Observability:
    """One world's event sink: counters, an optional log, per-node rings.

    Construct one per world and hand it to every node (``obs=`` on the
    constructors), fabric and runtime.  The clock is the owning
    runtime's ``now`` so sim worlds stamp virtual time and aio worlds
    wall time -- use :meth:`for_runtime` to wire that up.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time.
    ring_capacity:
        Traced events retained per node.  ``0`` makes a sink that is
        not :attr:`observing`: it keeps no rings, its nodes set no wire
        trace flag and publish no engine metrics, and causal emissions
        are no-ops -- it only counts (and, with ``keep_trace``, logs)
        plain events.
    keep_trace:
        Keep every plain event in :attr:`log`, unbounded and in exact
        emission order -- for short seeded runs whose full trace is
        compared (the golden digests).  Off, a plain event outside the
        rings costs one counter bump and its details are never
        stringified.
    """

    __slots__ = (
        "registry",
        "recorders",
        "ring_capacity",
        "log",
        "_clock",
        "_seq",
        "_plain",
        "_causal",
        "_by_event",
    )

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        keep_trace: bool = False,
    ) -> None:
        if ring_capacity < 0:
            raise ValueError(f"ring capacity cannot be negative, got {ring_capacity}")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.ring_capacity = ring_capacity
        self.registry = MetricsRegistry()
        self.recorders: dict[str, FlightRecorder] = {}
        self.log: list[SpanEvent] | None = [] if keep_trace else None
        # Shared emission counter: same-timestamp events across nodes
        # keep their true (single-threaded) causal order.
        self._seq = count().__next__
        # Each name's ``obs.event.<name>`` counter, resolved (and the
        # name validated) once, by the kind it is emitted as.
        self._plain: dict[str, Counter] = {}
        self._causal: dict[str, Counter] = {}
        self._by_event: dict[str, list[SpanEvent]] = {}

    @classmethod
    def for_runtime(cls, runtime) -> Observability:
        """An observability layer stamping the runtime's own clock."""
        return cls(clock=lambda: runtime.now)

    @property
    def observing(self) -> bool:
        """Whether causal events are kept (and the wire is flagged)."""
        return self.ring_capacity > 0

    def emit(self, event: str, node: str, trace_id: str = "", hop: int = 0, **detail: object) -> None:
        """The one place an event is validated, counted and kept.

        A causal name is a step of a traced request: it needs a trace id
        and, unless the sink is :attr:`observing`, is a no-op.  A plain
        name is a fact: always counted, logged when the sink keeps a
        trace and, when it carries a trace id and the sink is observing,
        also kept in the node's ring.  An unknown name, or a causal one
        without a trace id, raises :class:`UnknownEventError`.
        """
        counter = self._plain.get(event)
        if counter is None:
            if is_causal(event):
                self._step(event, node, trace_id, hop, detail)
                return
            counter = self._plain[event] = self.registry.counter(f"obs.event.{event}")
        counter.value += 1
        ring = trace_id and self.ring_capacity
        if not ring and self.log is None:
            return
        time, details, seq = float(self._clock()), normalise_detail(detail), self._seq()
        if ring:
            self.recorder(node).put(time, event, trace_id, hop, details, seq)
        if self.log is not None:
            entry = SpanEvent(time, event, node, trace_id, hop, details, seq)
            self.log.append(entry)
            self._by_event.setdefault(event, []).append(entry)

    def _step(self, event: str, node: str, trace_id: str, hop: int, detail: dict) -> None:
        if not trace_id:
            raise UnknownEventError(f"{event!r} is a causal event and needs a trace id")
        if not self.ring_capacity:
            return
        counter = self._causal.get(event)
        if counter is None:
            counter = self._causal[event] = self.registry.counter(f"obs.event.{event}")
        counter.value += 1
        self.recorder(node).put(
            float(self._clock()), event, trace_id, hop, normalise_detail(detail), self._seq()
        )

    def count(self, event: str) -> int:
        """How many times ``event`` was emitted (0 if never)."""
        counter = (self._causal if is_causal(event) else self._plain).get(event)
        return counter.value if counter is not None else 0

    def events(self, event: str) -> list[SpanEvent]:
        """Kept records named ``event``, in emission order.

        Plain names are served from a per-name index of :attr:`log`
        (empty unless the sink keeps a trace); causal names from what
        the rings still hold.
        """
        if is_causal(event):
            kept = [e for r in self.recorders.values() for e in r.snapshot() if e.event == event]
            return sorted(kept, key=lambda e: e.seq)
        return list(self._by_event.get(event, ()))

    def clear(self) -> None:
        """Drop every kept record and zero every event counter."""
        for counter in (*self._plain.values(), *self._causal.values()):
            counter.value = 0
        if self.log is not None:
            self.log.clear()
        self._by_event.clear()
        for recorder in self.recorders.values():
            recorder.clear()

    def recorder(self, node: str) -> FlightRecorder:
        """The (lazily created) flight ring for ``node``."""
        recorder = self.recorders.get(node)
        if recorder is None:
            recorder = self.recorders[node] = FlightRecorder(node, self.ring_capacity)
        return recorder

    def snapshot(self) -> dict[str, object]:
        from repro.obs.export import telemetry_snapshot

        return telemetry_snapshot(self)
