"""Reliable delivery of events (paper reference [5]).

NaradaBrokering's reliable-delivery service guarantees that a consumer
eventually sees every event published on a reliable stream, in order,
across message loss and its own disconnects.  The reproduction follows
the same architecture:

* **Stream stamping** -- a :class:`ReliablePublisher` stamps every
  event with a stream id (``publisher:topic``) and a monotonically
  increasing sequence number, carried in event headers.
* **Stable storage** -- a :class:`ReliableDeliveryService` attached to
  one broker archives every stamped event it routes (bounded per-stream
  archive).
* **Recovery** -- a :class:`ReliableSubscriber` tracks the next
  expected sequence number per stream, buffers out-of-order arrivals,
  and on detecting a gap publishes a *recovery request* on a service
  topic.  The archive replays the missing range on a per-subscriber
  reply topic, after which ordered delivery resumes.

Everything rides ordinary pub/sub events, so the service works on any
topology the substrate supports.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.core.errors import CodecError
from repro.core.messages import Event
from repro.substrate.broker import Broker
from repro.substrate.client import PubSubClient

__all__ = [
    "STREAM_HEADER",
    "SEQ_HEADER",
    "RELIABLE_REQUEST_TOPIC",
    "replay_topic",
    "EventArchive",
    "ReliableDeliveryService",
    "ReliablePublisher",
    "ReliableSubscriber",
]

STREAM_HEADER = "x-reliable-stream"
SEQ_HEADER = "x-reliable-seq"
REPLAY_HEADER = "x-reliable-replay"

RELIABLE_REQUEST_TOPIC = "Services/ReliableDelivery/Request"
_REPLAY_PREFIX = "Services/ReliableDelivery/Replay"


def replay_topic(subscriber: str) -> str:
    """The per-subscriber topic recovered events are replayed on."""
    return f"{_REPLAY_PREFIX}/{subscriber}"


class EventArchive:
    """Bounded per-stream storage of stamped events.

    Keeps the most recent ``capacity`` events of each stream; older
    sequence numbers roll off and become unrecoverable (real stable
    storage is finite too).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._streams: dict[str, OrderedDict[int, Event]] = {}

    def store(self, stream: str, seq: int, event: Event) -> None:
        """Archive one event (idempotent per (stream, seq))."""
        entries = self._streams.setdefault(stream, OrderedDict())
        if seq in entries:
            return
        entries[seq] = event
        while len(entries) > self.capacity:
            entries.popitem(last=False)

    def fetch(self, stream: str, from_seq: int, to_seq: int) -> list[Event]:
        """Archived events of ``stream`` with ``from_seq <= seq <= to_seq``."""
        entries = self._streams.get(stream, {})
        return [entries[s] for s in sorted(entries) if from_seq <= s <= to_seq]

    def latest_seq(self, stream: str) -> int | None:
        """Highest archived sequence number of ``stream`` (None if empty)."""
        entries = self._streams.get(stream)
        return max(entries) if entries else None

    def streams(self) -> list[str]:
        """Known stream ids, sorted."""
        return sorted(self._streams)


def _encode_request(stream: str, from_seq: int, to_seq: int, subscriber: str) -> bytes:
    return "\x1f".join([stream, str(from_seq), str(to_seq), subscriber]).encode()


def _decode_request(payload: bytes) -> tuple[str, int, int, str]:
    try:
        stream, lo, hi, subscriber = payload.decode().split("\x1f")
        return stream, int(lo), int(hi), subscriber
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError("malformed recovery request") from exc


class ReliableDeliveryService:
    """Stable-storage node: archives stamped events, serves recoveries.

    Parameters
    ----------
    broker:
        The broker this service is co-located with.  Because events
        flood the broker network, attaching the service to any broker
        archives every stamped event in the (connected) network.
    pattern:
        Topic pattern to archive (default: everything).
    capacity:
        Per-stream archive bound.
    """

    def __init__(self, broker: Broker, pattern: str = "**", capacity: int = 1024) -> None:
        self.broker = broker
        self.archive = EventArchive(capacity)
        self.replays_served = 0
        self.requests_received = 0
        broker.add_control_handler(pattern, self._maybe_archive)
        broker.add_control_handler(RELIABLE_REQUEST_TOPIC, self._on_request)
        # Under content routing the archive must declare interest or
        # the network prunes reliable streams before they reach it.
        broker.add_local_interest(pattern)

    def _maybe_archive(self, event: Event, from_peer: str | None) -> None:
        stream = event.header(STREAM_HEADER)
        seq = event.header(SEQ_HEADER)
        if stream is None or seq is None:
            return
        if event.header(REPLAY_HEADER) is not None:
            return  # never re-archive replays
        try:
            self.archive.store(stream, int(seq), event)
        except ValueError:
            self.broker.emit("reliable_bad_seq", uuid=event.uuid)

    def _on_request(self, event: Event, from_peer: str | None) -> None:
        try:
            stream, from_seq, to_seq, subscriber = _decode_request(event.payload)
        except CodecError:
            self.broker.emit("reliable_bad_request", uuid=event.uuid)
            return
        self.requests_received += 1
        for archived in self.archive.fetch(stream, from_seq, to_seq):
            replayed = Event(
                uuid=self.broker.ids(),  # fresh uuid: dedup must not eat it
                topic=replay_topic(subscriber),
                payload=archived.payload,
                source=archived.source,
                issued_at=archived.issued_at,
                headers=archived.headers + ((REPLAY_HEADER, "1"),),
            )
            self.broker.publish_local(replayed)
            self.replays_served += 1


class ReliablePublisher:
    """Stamps published events with stream id + sequence numbers.

    One instance wraps one pub/sub client; streams are per topic, so
    interleaved topics each get their own gap-free numbering.
    """

    def __init__(self, client: PubSubClient) -> None:
        self.client = client
        self._next_seq: dict[str, int] = {}

    def stream_id(self, topic: str) -> str:
        """The stream identifier used for ``topic``."""
        return f"{self.client.name}:{topic}"

    def publish(self, topic: str, payload: bytes = b"") -> Event:
        """Publish one reliable event; returns the stamped event."""
        seq = self._next_seq.get(topic, 1)
        self._next_seq[topic] = seq + 1
        return self.client.publish(
            topic,
            payload,
            headers=((STREAM_HEADER, self.stream_id(topic)), (SEQ_HEADER, str(seq))),
        )

    def last_seq(self, topic: str) -> int:
        """Highest sequence number published on ``topic`` (0 if none)."""
        return self._next_seq.get(topic, 1) - 1


class ReliableSubscriber:
    """Delivers a reliable stream's events in order, recovering gaps.

    Parameters
    ----------
    client:
        The pub/sub client to subscribe through.
    pattern:
        Topic pattern to consume reliably.
    on_event:
        Callback receiving events in per-stream sequence order, exactly
        once each.

    Notes
    -----
    Gap recovery is requested as soon as an out-of-order arrival
    reveals one.  Events that fell out of the archive are unrecoverable;
    :meth:`skip_gap` lets an application accept the loss and resume.
    """

    def __init__(
        self,
        client: PubSubClient,
        pattern: str,
        on_event: Callable[[Event], None],
    ) -> None:
        self.client = client
        self.pattern = pattern
        self.on_event = on_event
        self._next: dict[str, int] = {}
        self._ahead: dict[str, dict[int, Event]] = {}
        self._requested: dict[str, int] = {}  # stream -> highest seq requested
        self.delivered = 0
        self.duplicates = 0
        self.gaps_requested = 0
        client.subscribe(pattern, self._on_raw)
        client.subscribe(replay_topic(client.name), self._on_raw)

    def next_expected(self, stream: str) -> int:
        """Next in-order sequence number for ``stream``."""
        return self._next.get(stream, 1)

    def buffered(self, stream: str) -> int:
        """Out-of-order events currently buffered for ``stream``."""
        return len(self._ahead.get(stream, ()))

    def _on_raw(self, event: Event) -> None:
        stream = event.header(STREAM_HEADER)
        seq_text = event.header(SEQ_HEADER)
        if stream is None or seq_text is None:
            return
        try:
            seq = int(seq_text)
        except ValueError:
            return
        expected = self.next_expected(stream)
        if seq < expected:
            self.duplicates += 1
            return
        ahead = self._ahead.setdefault(stream, {})
        if seq > expected:
            if seq in ahead:
                self.duplicates += 1
                return
            ahead[seq] = event
            # Only the leading hole needs recovery: everything from the
            # earliest buffered event onward is already in hand.
            self._request_gap(stream, expected, min(ahead) - 1)
            return
        # In-order: deliver it and everything buffered behind it.
        self._deliver(stream, event)
        while self.next_expected(stream) in ahead:
            self._deliver(stream, ahead.pop(self.next_expected(stream)))

    def _deliver(self, stream: str, event: Event) -> None:
        self._next[stream] = self.next_expected(stream) + 1
        self.delivered += 1
        self.on_event(event)

    def _request_gap(self, stream: str, from_seq: int, to_seq: int) -> None:
        if self._requested.get(stream, 0) >= to_seq:
            return  # already asked for this range
        self._requested[stream] = to_seq
        self.gaps_requested += 1
        self.client.publish(
            RELIABLE_REQUEST_TOPIC,
            _encode_request(stream, from_seq, to_seq, self.client.name),
        )

    def request_history(self, stream: str, from_seq: int = 1, to_seq: int | None = None) -> None:
        """Ask the archive to replay a stream's history ("replays").

        The paper's introduction lists *replays* among the substrate
        services: a late-joining consumer can pull everything the
        archive still holds.  Replayed events flow through the normal
        ordered-delivery path, so already-seen sequence numbers are
        filtered as duplicates and the rest are delivered in order.

        Parameters
        ----------
        stream:
            Stream id (``publisher:topic``).
        from_seq / to_seq:
            Inclusive range; ``to_seq=None`` requests everything the
            archive has (a practically unbounded upper limit).
        """
        if from_seq < 1:
            raise ValueError("from_seq must be >= 1")
        upper = to_seq if to_seq is not None else 2**31
        if upper < from_seq:
            raise ValueError("to_seq must be >= from_seq")
        self.client.publish(
            RELIABLE_REQUEST_TOPIC,
            _encode_request(stream, from_seq, upper, self.client.name),
        )

    def skip_gap(self, stream: str) -> int:
        """Abandon an unrecoverable gap: jump to the earliest buffered
        event and deliver onward.  Returns how many sequence numbers
        were skipped (0 if nothing was buffered)."""
        ahead = self._ahead.get(stream)
        if not ahead:
            return 0
        target = min(ahead)
        skipped = target - self.next_expected(stream)
        self._next[stream] = target
        while self.next_expected(stream) in ahead:
            self._deliver(stream, ahead.pop(self.next_expected(stream)))
        return skipped
