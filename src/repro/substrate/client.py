"""Publish/subscribe client entity.

A :class:`PubSubClient` is any "entity" of the paper -- client, service,
or proxy thereto -- that attaches to one broker and interacts purely by
publishing and subscribing.  It keeps a local pattern->callback table
and dispatches events delivered by its broker.

The *discovery* client (which finds the broker to attach to in the
first place) lives in :mod:`repro.discovery.requester`; a typical
application runs discovery first, then connects a ``PubSubClient`` to
the broker discovery selected.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.config import Endpoint
from repro.core.errors import TransportError
from repro.core.messages import Ack, Event, Message, Subscribe, Unsubscribe
from repro.runtime.api import Link, Runtime
from repro.simnet.node import Node
from repro.substrate.topics import topic_matches, validate_pattern, validate_topic

__all__ = ["PubSubClient"]

EventCallback = Callable[[Event], None]


class PubSubClient(Node):
    """A messaging entity attached to one broker.

    Examples
    --------
    Typical flow (inside a simulation)::

        client = PubSubClient("alice", "alice.host", network, rng, site="lab")
        client.start()
        client.connect(broker.client_endpoint)
        ...  # run sim until connected
        client.subscribe("sports/**", lambda ev: print(ev.topic))
        client.publish("sports/tennis/scores", b"6-4 6-4")
    """

    def __init__(
        self,
        name: str,
        host: str,
        network: Runtime | object,
        rng: np.random.Generator,
        site: str | None = None,
    ) -> None:
        super().__init__(name, host, network, rng, site=site)
        self._conn: Link | None = None
        self._callbacks: dict[str, list[EventCallback]] = {}
        self.received: list[Event] = []
        self.events_published = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        """True while the broker connection is open."""
        return self._conn is not None and self._conn.open

    def connect(self, broker_endpoint: Endpoint) -> None:
        """Open the TCP connection to a broker's client port (async).

        Any subscriptions made before the connection completes are
        replayed once it does, so callers may subscribe immediately.
        """
        if self.connected:
            raise TransportError(f"client {self.name} is already connected")

        def established(conn: Link) -> None:
            self._conn = conn
            conn.on_receive = self._on_message
            conn.on_close = self._on_disconnected
            conn.send(Ack(uuid=self.ids(), acked_by=self.name))
            for pattern in self._callbacks:
                conn.send(Subscribe(uuid=self.ids(), topic=pattern, subscriber=self.name))
            self.emit("client_connected", broker=str(broker_endpoint))

        self.runtime.connect_tcp(self.endpoint(0), broker_endpoint, established)

    def disconnect(self) -> None:
        """Close the broker connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _on_disconnected(self) -> None:
        self._conn = None
        self.emit("client_disconnected")

    # ------------------------------------------------------------------
    # Pub/sub
    # ------------------------------------------------------------------
    def subscribe(self, pattern: str, callback: EventCallback | None = None) -> None:
        """Register interest in ``pattern``; events arrive at ``callback``.

        Multiple callbacks may be stacked on the same pattern.  All
        received events are additionally appended to :attr:`received`.
        """
        validate_pattern(pattern)
        callbacks = self._callbacks.setdefault(pattern, [])
        if callback is not None:
            callbacks.append(callback)
        if self.connected:
            assert self._conn is not None
            self._conn.send(Subscribe(uuid=self.ids(), topic=pattern, subscriber=self.name))

    def unsubscribe(self, pattern: str) -> None:
        """Withdraw interest in ``pattern`` and drop its callbacks."""
        self._callbacks.pop(pattern, None)
        if self.connected:
            assert self._conn is not None
            self._conn.send(Unsubscribe(uuid=self.ids(), topic=pattern, subscriber=self.name))

    def publish(
        self,
        topic: str,
        payload: bytes = b"",
        headers: tuple[tuple[str, str], ...] = (),
    ) -> Event:
        """Publish an event to ``topic`` through the attached broker."""
        validate_topic(topic)
        if not self.connected:
            raise TransportError(f"client {self.name} is not connected to a broker")
        event = Event(
            uuid=self.ids(),
            topic=topic,
            payload=payload,
            source=self.name,
            issued_at=self.utc(),
            headers=headers,
        )
        assert self._conn is not None
        self._conn.send(event)
        self.events_published += 1
        return event

    def _on_message(self, message: Message, src: Endpoint) -> None:
        if not isinstance(message, Event):
            return
        self.received.append(message)
        for pattern, callbacks in self._callbacks.items():
            if topic_matches(pattern, message.topic):
                for callback in callbacks:
                    callback(message)
