"""The sans-IO runtime contract every protocol engine speaks.

The discovery scheme and the messaging substrate are pure protocol
logic: state machines reacting to messages and timers.  Historically
they reached straight into the discrete-event simulator
(``self.sim.schedule``) and its network fabric (``self.network.send_udp``),
which welded them to simulation.  This module defines the narrow
runtime surface they are allowed to touch instead:

* :class:`Scheduler` -- virtual or wall-clock time plus one-shot and
  periodic timers returning cancellable :class:`TimerHandle` objects;
* :class:`Transport` -- host registry queries, UDP datagrams, realm
  -scoped multicast, and TCP-like reliable :class:`Link` connections;
* :class:`Runtime` -- one object offering both surfaces (engines hold a
  single ``self.runtime``).

Two implementations ship with the repo:

* :class:`repro.simnet.network.Network` -- the simulated fabric is
  itself the sim runtime: it is the :class:`Transport`, and its
  ``schedule`` / ``schedule_at`` / ``call_every`` are its
  :class:`~repro.simnet.simulator.Simulator`'s own bound methods, so
  a timer costs no adapter frame.  The determinism tests pin event
  ordering and trace output with golden trace digests.
* :class:`repro.runtime.aio.AioRuntime` -- real asyncio UDP/TCP sockets
  on localhost with a wall-clock scheduler.  Loss is whatever the real
  network does; there is no simulated loss model.

The protocols are ``runtime_checkable`` for coarse isinstance probes,
but engines rely on structure, not registration.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Protocol, runtime_checkable

from repro.core.config import Endpoint
from repro.core.messages import Message

__all__ = [
    "TimerHandle",
    "Scheduler",
    "Link",
    "Transport",
    "Runtime",
    "Handler",
    "OwnedTimers",
    "as_runtime",
]

#: Datagram handler signature shared by every runtime.
Handler = Callable[[Message, Endpoint], None]


@runtime_checkable
class TimerHandle(Protocol):
    """Handle to a pending (or periodic) callback; supports cancellation."""

    cancelled: bool

    def cancel(self) -> None:
        """Prevent the callback (or any further periodic firing); idempotent."""
        ...


@runtime_checkable
class Scheduler(Protocol):
    """Time and timers.

    ``now`` is seconds on the runtime's clock -- virtual seconds under
    simulation, wall-clock seconds since runtime start under asyncio.
    Protocol code must treat it as opaque monotone time.
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` seconds."""
        ...

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute time ``time`` on this clock."""
        ...

    def call_every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: float | None = None,
    ) -> TimerHandle:
        """Run ``fn(*args)`` periodically until the handle is cancelled.

        A tick that raises must not kill the series (the next tick is
        re-armed first), matching
        :meth:`repro.simnet.simulator.Simulator.call_every`.
        """
        ...


@runtime_checkable
class Link(Protocol):
    """One side of an established reliable, ordered connection.

    Mirrors :class:`repro.simnet.network.Connection`: assign
    ``on_receive`` / ``on_close`` before traffic flows, ``send`` whole
    messages, ``close`` tears down both sides.
    """

    local: Endpoint
    remote: Endpoint
    open: bool
    on_receive: Handler | None
    on_close: Callable[[], None] | None

    def send(self, message: Message) -> None: ...

    def close(self) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Datagrams, multicast and reliable links between named hosts.

    Hosts are *symbolic* names (``"b0.site0"``); each transport owns
    the mapping to whatever addressing it really uses (latency-matrix
    sites in simulation, real localhost sockets under asyncio).
    """

    # -- host registry --------------------------------------------------
    def register_host(
        self,
        host: str,
        site: str,
        realm: str | None = None,
        multicast_enabled: bool = True,
    ) -> None: ...

    def site_of(self, host: str) -> str:
        """Site of a host; raises :class:`~repro.core.errors.UnknownHostError`
        for unregistered hosts."""
        ...

    def realm_of(self, host: str) -> str: ...

    def multicast_enabled(self, host: str) -> bool:
        """Multicast capability query for one host."""
        ...

    # -- UDP ------------------------------------------------------------
    def bind_udp(self, endpoint: Endpoint, handler: Handler) -> None: ...

    def unbind_udp(self, endpoint: Endpoint) -> None: ...

    def send_udp(self, src: Endpoint, dst: Endpoint, message: Message) -> None:
        """Fire-and-forget datagram; silently lossy."""
        ...

    # -- multicast ------------------------------------------------------
    def join_multicast(self, group: str, endpoint: Endpoint) -> None: ...

    def leave_multicast(self, group: str, endpoint: Endpoint) -> None: ...

    def multicast(self, src: Endpoint, group: str, message: Message) -> int:
        """Send to every in-realm group member; returns members addressed."""
        ...

    # -- TCP links ------------------------------------------------------
    def listen_tcp(self, endpoint: Endpoint, on_accept: Callable[[Link], None]) -> None: ...

    def stop_listening(self, endpoint: Endpoint) -> None: ...

    def connect_tcp(
        self, src: Endpoint, dst: Endpoint, on_connected: Callable[[Link], None]
    ) -> None: ...


@runtime_checkable
class Runtime(Scheduler, Transport, Protocol):
    """The full surface a protocol engine holds: scheduler + transport.

    ``kind`` identifies the implementation (``"sim"`` or ``"aio"``) for
    logging and configuration; protocol logic must never branch on it.
    """

    kind: str


class OwnedTimers:
    """An engine's pending one-shot timers, cancellable together.

    ``schedule`` arms ``fn(key, *args)``, and ``fn`` calls ``pop(key)``
    when it fires: the state travels as ``args`` and nothing closes over
    the handle, so reference counting frees a fired or cancelled timer.
    """

    def __init__(self, runtime: Scheduler) -> None:
        self._runtime = runtime
        self._pending: dict[int, TimerHandle] = {}
        self._next_key = 0
        self.pop = self._pending.pop  # pop(key): no frame of ours on the fire path

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        self._next_key = key = self._next_key + 1
        self._pending[key] = self._runtime.schedule(delay, fn, key, *args)

    def cancel_all(self) -> None:
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()

    def __len__(self) -> int:
        return len(self._pending)


def as_runtime(fabric: Any) -> Runtime:
    """Coerce ``fabric`` into a :class:`Runtime`.

    Returns an object already exposing the runtime surface -- a
    :class:`~repro.simnet.network.Network`, an
    :class:`~repro.runtime.aio.AioRuntime`, or a proxy over either --
    unchanged, and rejects anything else.
    """
    if hasattr(fabric, "kind") and hasattr(fabric, "schedule") and hasattr(fabric, "send_udp"):
        return fabric
    raise TypeError(f"cannot derive a Runtime from {type(fabric).__name__}")
