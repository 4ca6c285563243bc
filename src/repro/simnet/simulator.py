"""The discrete-event loop.

A :class:`Simulator` owns virtual time and a store of pending
callbacks.  Two properties matter for reproducibility:

* **Deterministic ordering** -- events at equal timestamps fire in the
  order they were scheduled (a monotone sequence number breaks ties),
  so runs are bit-for-bit repeatable for a fixed seed.
* **Cancellation without rebuild** -- cancelling marks the entry dead;
  it is dropped lazily, never by restructuring the pending store at
  cancel time.

Two interchangeable schedulers implement the store, selected by the
``scheduler`` constructor argument:

* ``"wheel"`` (default) -- a timer wheel of one level of 0.25 s slots
  (:mod:`repro.simnet.wheel`): an event in a later slot is an O(1)
  append, an event in the slot being drained is a push onto that slot's
  heap, and ``cancel`` is O(1) with amortised dead-entry sweeps.  A
  discovery round's millisecond-spaced events pay one ``heappush`` and
  one ``heappop`` each; leases, sweeps and timeouts wait as appends
  until their slot comes up.
* ``"heap"`` -- the binary-heap scheduler the wheel's tests use as
  their reference: ``(time, seq, event)`` tuples on :mod:`heapq` with
  lazy deletion, rebuilt without its cancelled entries once they are
  more than half of it.

Both schedulers fire callbacks in exactly ``(time, seq)`` order, so a
fixed seed produces bit-identical traces in either mode -- the golden
sha256 digests in ``tests/simnet`` pin this.

The event loop is the hot path of every benchmark.  Besides the wheel,
two fast paths keep long runs flat:

* a **live-event counter** makes :attr:`Simulator.pending` O(1) instead
  of an O(n) scan -- monitors and soak harnesses poll it freely;
* :meth:`Simulator.schedule_fire` / :meth:`Simulator.schedule_fire_at`
  enqueue a bare ``(time, seq, fn, args)`` tuple with no handle.  The
  network fabric uses them for datagram/segment deliveries, and
  :meth:`Simulator.call_every` for its ticks, none of which is ever
  cancelled: no :class:`ScheduledEvent` allocation, no cancellation
  check on the fire path.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heapify, heappop, heappush
from typing import Any

from .wheel import INV_SLOT_WIDTH, TimerWheel

__all__ = ["Simulator", "ScheduledEvent"]

#: Heap mode rebuilds the heap without its cancelled entries once they
#: exceed this fraction of it.
_COMPACTION_THRESHOLD = 0.5
#: Heap-mode compaction never runs below this queue size; tiny heaps
#: are cheap to scan and rebuilding them would thrash.
_MIN_COMPACTION_SIZE = 64


class ScheduledEvent:
    """Handle to a pending callback; supports cancellation.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; call :meth:`cancel` to prevent the
    callback from firing.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference to the owning simulator while the entry sits in
        # its queue; detached on pop so late cancels of already-fired
        # events cannot skew the live-event accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Queued until swept or popped: stop pinning what the callback held.
        self.fn = self.args = None
        if self._sim is not None:
            self._sim._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    scheduler:
        ``"wheel"`` (default) for the timer wheel, ``"heap"`` for the
        reference binary-heap scheduler.  The wheel's slot is
        ``SLOT_WIDTH`` (0.25 s) of virtual time; exact fire times are
        unaffected, the slot only selects the bucket.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired, sim.now
    (['b', 'a'], 1.5)
    """

    def __init__(self, scheduler: str = "wheel") -> None:
        if scheduler not in ("wheel", "heap"):
            raise ValueError(f"scheduler must be 'wheel' or 'heap', got {scheduler!r}")
        self.scheduler = scheduler
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._live = 0  # queued entries that are not cancelled
        self._dead = 0  # heap mode: queued cancelled entries (lazy-deleted)
        self._compactions = 0
        if scheduler == "wheel":
            self._wheel: TimerWheel | None = TimerWheel()
            #: Min-heap of entries at or before the wheel cursor -- the
            #: slot currently being drained plus same-slot arrivals.
            self._active: list[tuple] = []
            self.schedule = self._schedule_wheel
            self.schedule_at = self._schedule_at_wheel
            self.schedule_fire = self._schedule_fire_wheel
            self.schedule_fire_at = self._schedule_fire_at_wheel
            self.step = self._step_wheel
            self.run = self._run_wheel
        else:
            self._wheel = None
            self._queue = []
            self.schedule = self._schedule_heap
            self.schedule_at = self._schedule_at_heap
            self.schedule_fire = self._schedule_fire_heap
            self.schedule_fire_at = self._schedule_fire_at_heap
            self.step = self._step_heap
            self.run = self._run_heap

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Queued events whose handle is not cancelled (O(1)); a cancelled
        ``call_every`` series still counts its one queued tick until that
        tick fires as a no-op (the tick has no handle of its own)."""
        return self._live

    @property
    def queue_size(self) -> int:
        """Physical store size, cancelled entries included."""
        wheel = self._wheel
        if wheel is None:
            return len(self._queue)
        return len(self._active) + wheel.bucketed

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed

    @property
    def compactions(self) -> int:
        """Dead-entry reclamations performed (heap rebuilds or wheel sweeps)."""
        wheel = self._wheel
        if wheel is None:
            return self._compactions
        return wheel.sweeps

    # ------------------------------------------------------------------
    # Scheduling -- wheel mode
    # ------------------------------------------------------------------
    def _schedule_wheel(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args, self)
        wheel = self._wheel
        slot = int(time * INV_SLOT_WIDTH)
        if slot <= wheel.cur_slot:
            heappush(self._active, (time, seq, ev))
        else:
            wheel.insert((time, seq, ev), slot)
        self._live += 1
        return ev

    def _schedule_at_wheel(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args, self)
        wheel = self._wheel
        slot = int(time * INV_SLOT_WIDTH)
        if slot <= wheel.cur_slot:
            heappush(self._active, (time, seq, ev))
        else:
            wheel.insert((time, seq, ev), slot)
        self._live += 1
        return ev

    def _schedule_fire_wheel(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable.

        The fabric's delivery path -- every datagram and TCP segment --
        lands here; skipping the handle allocation and the cancellation
        check is a measurable share of the event loop.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        wheel = self._wheel
        slot = int(time * INV_SLOT_WIDTH)
        if slot <= wheel.cur_slot:
            heappush(self._active, (time, seq, fn, args))
        else:
            wheel.insert((time, seq, fn, args), slot)
        self._live += 1

    def _schedule_fire_at_wheel(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        wheel = self._wheel
        slot = int(time * INV_SLOT_WIDTH)
        if slot <= wheel.cur_slot:
            heappush(self._active, (time, seq, fn, args))
        else:
            wheel.insert((time, seq, fn, args), slot)
        self._live += 1

    # ------------------------------------------------------------------
    # Scheduling -- heap mode
    # ------------------------------------------------------------------
    def _schedule_heap(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, ev))
        self._live += 1
        return ev

    def _schedule_at_heap(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, ev))
        self._live += 1
        return ev

    def _schedule_fire_heap(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, fn, args))
        self._live += 1

    def _schedule_fire_at_heap(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no handle, not cancellable."""
        if time < self._now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, seq, fn, args))
        self._live += 1

    # ------------------------------------------------------------------
    # Periodic timers (shared by both modes)
    # ------------------------------------------------------------------
    def call_every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: float | None = None,
    ) -> ScheduledEvent:
        """Run ``fn(*args)`` periodically until the returned handle is cancelled.

        The returned handle controls the *whole* series: cancelling it
        stops future firings.  ``first_delay`` defaults to ``interval``.
        A tick that raises does **not** kill the series: the next tick
        is re-armed before the exception propagates, so periodic
        services (heartbeat renewals, sweeps) survive one bad callback.

        The cancellation check runs both *before* the callback (a
        cancel elsewhere in the same delivery batch must suppress the
        tick) and *after* it (a callback cancelling its own handle
        mid-fire must not re-arm a dead timer) -- the wheel's batched
        same-slot delivery makes both orderings reachable in one slot.

        Each tick is queued handle-free (the ``schedule_fire`` path): only
        the series handle is ever cancelled, so a per-tick handle would be
        an allocation nobody reads.  The bare method is bound rather than
        the ``schedule_fire`` attribute, which an instrumenting wrapper
        may replace to time fabric deliveries; a tick is none.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        series = ScheduledEvent(self._now, -1, fn, args)  # master handle, never queued
        arm = self._schedule_fire_wheel if self._wheel is not None else self._schedule_fire_heap

        def tick() -> None:
            if series.cancelled:
                return
            try:
                fn(*args)
            finally:
                # Re-arm strictly after the callback: fn may have
                # cancelled the series (directly or transitively), and
                # scheduling first would leave an orphan live tick.
                if not series.cancelled:
                    arm(interval, tick)

        arm(interval if first_delay is None else first_delay, tick)
        return series

    # ------------------------------------------------------------------
    # Cancelled-entry accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """A queued entry was cancelled; reclaim if the store is mostly dead."""
        self._live -= 1
        wheel = self._wheel
        if wheel is not None:
            wheel.note_cancelled()
            return
        self._dead += 1
        size = len(self._queue)
        if size >= _MIN_COMPACTION_SIZE and self._dead > _COMPACTION_THRESHOLD * size:
            self._compact()

    def _compact(self) -> None:
        """Heap mode: rebuild the heap without cancelled entries.

        Only entries that could never fire are removed, and heapify
        re-establishes the identical ``(time, seq)`` total order, so
        pop order -- and therefore every virtual-time result -- is
        unchanged.
        """
        self._queue = [e for e in self._queue if len(e) == 4 or not e[2].cancelled]
        heapify(self._queue)
        self._dead = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution -- wheel mode
    # ------------------------------------------------------------------
    def _step_wheel(self) -> bool:
        """Fire the single next event.  Returns False if the store is empty."""
        wheel = self._wheel
        while True:
            active = self._active
            if not active:
                batch = wheel.promote()
                if batch is None:
                    return False
                if batch:
                    heapify(batch)
                    self._active = batch
                continue
            entry = heappop(active)
            if len(entry) == 3:
                ev = entry[2]
                if ev.cancelled:
                    if wheel.dead:
                        wheel.dead -= 1
                    continue
                ev._sim = None
                self._now = entry[0]
                self._events_processed += 1
                self._live -= 1
                ev.fn(*ev.args)
                return True
            self._now = entry[0]
            self._events_processed += 1
            self._live -= 1
            entry[2](*entry[3])
            return True

    def _run_wheel(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the store, optionally stopping at virtual time ``until``.

        With ``until`` set, time is advanced exactly to ``until`` when
        the store runs dry early, so post-run ``now`` is predictable.
        ``max_events`` bounds runaway simulations (raises RuntimeError).
        """
        fired = 0
        wheel = self._wheel
        bounded = max_events is not None
        active = self._active
        while True:
            if not active:
                batch = wheel.promote()
                if batch is None:
                    break
                if batch:
                    heapify(batch)
                    self._active = active = batch
                continue
            entry = active[0]
            if len(entry) == 3:
                ev = entry[2]
                if ev.cancelled:
                    heappop(active)
                    ev._sim = None
                    if wheel.dead:
                        wheel.dead -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(active)
                ev._sim = None
                self._now = time
                self._events_processed += 1
                self._live -= 1
                ev.fn(*ev.args)
            else:
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(active)
                self._now = time
                self._events_processed += 1
                self._live -= 1
                entry[2](*entry[3])
            fired += 1
            if bounded and fired >= max_events:
                raise RuntimeError(f"simulation exceeded max_events={max_events}")
        if until is not None and until > self._now:
            self._now = until

    # ------------------------------------------------------------------
    # Execution -- heap mode
    # ------------------------------------------------------------------
    def _step_heap(self) -> bool:
        """Fire the single next event.  Returns False if the store is empty."""
        while self._queue:
            entry = heappop(self._queue)
            if len(entry) == 3:
                ev = entry[2]
                if ev.cancelled:
                    self._dead -= 1
                    ev._sim = None
                    continue
                ev._sim = None
                self._live -= 1
                self._now = entry[0]
                self._events_processed += 1
                ev.fn(*ev.args)
                return True
            self._live -= 1
            self._now = entry[0]
            self._events_processed += 1
            entry[2](*entry[3])
            return True
        return False

    def _run_heap(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the store, optionally stopping at virtual time ``until``.

        With ``until`` set, time is advanced exactly to ``until`` when
        the store runs dry early, so post-run ``now`` is predictable.
        ``max_events`` bounds runaway simulations (raises RuntimeError).
        """
        fired = 0
        while self._queue:
            # self._queue is re-read every iteration: a callback's
            # cancel() can trigger compaction, which rebinds it.
            entry = self._queue[0]
            if len(entry) == 3:
                ev = entry[2]
                if ev.cancelled:
                    heappop(self._queue)
                    self._dead -= 1
                    ev._sim = None
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(self._queue)
                ev._sim = None
                self._live -= 1
                self._now = time
                self._events_processed += 1
                ev.fn(*ev.args)
            else:
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(self._queue)
                self._live -= 1
                self._now = time
                self._events_processed += 1
                entry[2](*entry[3])
            fired += 1
            if max_events is not None and fired >= max_events:
                raise RuntimeError(f"simulation exceeded max_events={max_events}")
        if until is not None and until > self._now:
            self._now = until

    # ------------------------------------------------------------------
    # Shared execution helpers
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds, firing due events."""
        self.run(until=self._now + duration)
