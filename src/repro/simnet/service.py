"""Bounded ingress queues with a service-time model.

Without this module every node in the simulation processes every
datagram the instant it is delivered, which makes overload physically
impossible: a BDN fanning a request out to a thousand brokers costs the
same as one, and a request storm is free.  :class:`IngressQueue` wraps
a node's UDP handler in the classic single-server queue:

* arrivals wait in a bounded FIFO (``queue_capacity``, the message in
  service included);
* each message occupies the server for its class's service time
  (:meth:`~repro.core.config.ServiceConfig.time_for`);
* arrivals that find the queue full are **dropped**, with a
  ``queue_overflow`` event and a counter -- exactly what a full
  socket buffer does to a real datagram;
* an optional **admission** hook runs *before* enqueueing, so a node
  can refuse work cheaply while its queue is deep (the BDN's
  high-watermark shedding) instead of paying queueing delay first.

Everything is driven by the owning node's :class:`Simulator`, with no
randomness of its own, so runs stay deterministic.  A node without a
:class:`~repro.core.config.ServiceConfig` never constructs one of
these -- the instant-processing behaviour (and every existing trace)
is untouched.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.core.config import Endpoint, ServiceConfig
from repro.core.messages import Message
from repro.obs import trace_context
from repro.runtime.api import Scheduler, TimerHandle

__all__ = ["IngressQueue"]

#: Handler signature shared with :meth:`Network.bind_udp`.
Handler = Callable[[Message, Endpoint], None]

#: Admission hook: ``admit(message, src)`` -> keep?  Runs before the
#: queue; a False return means the caller has already dealt with the
#: message (e.g. answered it with a busy signal) and it is not queued.
AdmitFn = Callable[[Message, Endpoint], bool]



class IngressQueue:
    """A bounded single-server FIFO in front of one UDP handler.

    Parameters
    ----------
    sim:
        The owning node's scheduler (clock + timers; any
        :class:`~repro.runtime.api.Scheduler`).
    handler:
        The wrapped handler; invoked when a message *finishes* service.
    config:
        Capacity and service times.
    owner:
        Optional :class:`~repro.simnet.node.Node` this queue fronts;
        the queue speaks through its ``emit``: ``queue_overflow`` for
        every dropped arrival and, while the owner is ``observing``,
        ``enqueue`` when a message carrying trace context is accepted
        into the queue and ``dequeue`` when it leaves for service.
    admit:
        Optional pre-queue admission hook (see :data:`AdmitFn`).

    Attributes
    ----------
    served:
        Messages that completed service.
    overflows:
        Messages dropped because the queue was full.
    shed:
        Messages refused by the admission hook.
    max_depth:
        Deepest the queue ever got (waiting + in service).
    """

    __slots__ = (
        "sim",
        "handler",
        "config",
        "admit",
        "_owner",
        "_waiting",
        "_in_service",
        "_service_event",
        "served",
        "overflows",
        "shed",
        "max_depth",
    )

    def __init__(
        self,
        sim: Scheduler,
        handler: Handler,
        config: ServiceConfig,
        owner=None,
        admit: AdmitFn | None = None,
    ) -> None:
        self.sim = sim
        self.handler = handler
        self.config = config
        self.admit = admit
        self._owner = owner
        self._waiting: deque[tuple[Message, Endpoint]] = deque()
        self._in_service = False
        self._service_event: TimerHandle | None = None
        self.served = 0
        self.overflows = 0
        self.shed = 0
        self.max_depth = 0

    @property
    def depth(self) -> int:
        """Messages currently held: waiting plus the one in service."""
        return len(self._waiting) + (1 if self._in_service else 0)

    def deliver(self, message: Message, src: Endpoint) -> None:
        """The fabric-facing entry point; bind this instead of the handler."""
        if self.admit is not None and not self.admit(message, src):
            self.shed += 1
            return
        if self.depth >= self.config.queue_capacity:
            self.overflows += 1
            if self._owner is not None:
                self._owner.emit(
                    "queue_overflow",
                    kind=type(message).__name__,
                    depth=self.depth,
                )
            return
        self._waiting.append((message, src))
        if self.depth > self.max_depth:
            self.max_depth = self.depth
        if self._owner is not None and self._owner.observing:
            self._emit_traced("enqueue", message)
        if not self._in_service:
            self._start_next()

    def _emit_traced(self, event: str, message: Message) -> None:
        ctx = trace_context(message)
        if ctx is not None:
            self._owner.emit(event, ctx[0], ctx[1], kind=type(message).__name__)

    def reset(self) -> None:
        """Drop queued work and abort the message in service.

        Called when the owning node stops: a crashed process loses its
        socket buffer.  Counters survive (they describe history, not
        state), so a revived node keeps reporting truthful totals.
        """
        self._waiting.clear()
        if self._service_event is not None:
            self._service_event.cancel()
            self._service_event = None
        self._in_service = False

    def _start_next(self) -> None:
        message, src = self._waiting.popleft()
        self._in_service = True
        if self._owner is not None and self._owner.observing:
            self._emit_traced("dequeue", message)
        self._service_event = self.sim.schedule(
            self.config.time_for(type(message)), self._finish, message, src
        )

    def _finish(self, message: Message, src: Endpoint) -> None:
        self._in_service = False
        self._service_event = None
        self.served += 1
        try:
            self.handler(message, src)
        finally:
            if self._waiting and not self._in_service:
                self._start_next()
