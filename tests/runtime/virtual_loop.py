"""An asyncio event loop whose clock jumps over idle waits.

:class:`VirtualLoop` is a stock :class:`asyncio.SelectorEventLoop` over a
selector that never sleeps while a timer is pending.  Each ``select``
polls the real sockets with timeout 0 and returns whatever is ready;
when nothing is, and the loop asked to wait ``timeout`` seconds for its
next timer, the selector moves the loop's clock forward by exactly that
much instead of waiting it out.  Only with no timer pending does it
block for real, on the sockets alone.  ``loop.time()`` is that clock, so
an :class:`~repro.runtime.aio.AioRuntime` on this loop tells the same
time its timers run on: real sockets carry every datagram, and only the
idle waits between them are skipped.

Two consequences the tests rely on:

* a datagram sent on loopback is in its receiver's socket queue when
  ``sendto`` returns, so it is read at the clock reading it was sent at,
  before any jump;
* :meth:`VirtualLoop.stall` is a blocked loop in loop time: the clock
  moves while the calling callback still holds the loop, so on the next
  pass the readable sockets are served first and the overdue timers
  after them, as they are after a real blocking call.

Prior art: trio's ``MockClock(autojump_threshold=0)``.  Bind a test with
:func:`run`, which goes through ``asyncio.Runner(loop_factory=...)``
(no global event-loop policy).
"""

from __future__ import annotations

import asyncio
import selectors
from collections.abc import Coroutine
from typing import Any, TypeVar

__all__ = ["VirtualLoop", "run"]

T = TypeVar("T")


class _JumpingSelector(selectors.DefaultSelector):
    """The platform selector, polled without waiting; idle waits become jumps."""

    def __init__(self) -> None:
        super().__init__()
        self.clock = 0.0

    def select(self, timeout: float | None = None):
        ready = super().select(0)
        if ready or timeout == 0:
            return ready
        if timeout is None:  # no timer pending: only a socket can wake the loop
            return super().select(None)
        self.clock += timeout
        return []


class VirtualLoop(asyncio.SelectorEventLoop):
    """A selector event loop on a clock that only jumps and stalls move."""

    def __init__(self) -> None:
        self._jumps = _JumpingSelector()
        super().__init__(self._jumps)

    def time(self) -> float:
        return self._jumps.clock

    def stall(self, seconds: float) -> None:
        """Block the loop for ``seconds`` of loop time, from inside a callback."""
        if seconds < 0:
            raise ValueError(f"cannot stall for a negative time ({seconds})")
        self._jumps.clock += seconds


def run(coro: Coroutine[Any, Any, T]) -> T:
    """``asyncio.run(coro)``, on a fresh :class:`VirtualLoop`."""
    with asyncio.Runner(loop_factory=VirtualLoop) as runner:
        return runner.run(coro)
