"""Timer wheel: the simulator's bucketed pending-event store.

The reference scheduler keeps every pending callback in one binary heap,
paying O(log n) per ``schedule`` and leaving cancelled entries in place
until their fire time is reached (threshold-triggered compaction
reclaims them).  Most timers in a long run are
retransmit guards, lease sweeps and watchdogs that get *cancelled*, so
the heap mostly sorts garbage.

:class:`TimerWheel` keeps the future in one level of coarse slots of
:data:`SLOT_WIDTH` virtual seconds: a ``{slot: [entry, ...]}`` map plus
a lazy min-heap of slot keys.  ``insert`` appends to the slot's bucket
in O(1) and pushes a key only when it creates a new bucket, so a lease
renewal, a sweep, a 30 s timeout or a pre-armed arrival costs one list
append.  ``cancel`` flips a flag -- O(1), never a heap operation -- and
the wheel sweeps dead entries out of its buckets once they outnumber
the live ones, which bounds memory at twice the live set without the
reference heap's full-heap rebuilds.

The slot currently being drained is the simulator's *active heap*:
``promote`` pops the smallest slot key, drops that slot's cancelled
entries and hands the rest over; the simulator heapifies them by
``(time, seq)`` and routes anything scheduled at or before the current
slot straight into that heap.  So the events of one discovery round,
which sit milliseconds apart, each cost one ``heappush`` and one
``heappop`` on a heap of one slot's population, and a promotion is paid
once per slot, not once per event.  Any two entries in different slots
are already time-ordered by slot, and ties inside one resolve on the
same ``(time, seq)`` key the heap uses, so the observable fire order is
*bit-identical* to the reference scheduler -- the golden-digest
determinism suite pins that.

Entries are plain tuples so heap comparisons resolve at C level:

* ``(time, seq, ScheduledEvent)`` -- cancellable, returned by
  ``Simulator.schedule``/``schedule_at``;
* ``(time, seq, fn, args)`` -- the fire-and-forget fast path used by
  the network fabric for datagram/segment deliveries, which are never
  cancelled and do not need a handle (len-4 tuples skip the cancellation
  check and the handle allocation entirely).
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["TimerWheel", "SLOT_WIDTH", "INV_SLOT_WIDTH"]

#: Virtual seconds per slot.  A slot only chooses the bucket: entries
#: keep their exact float time.  A quarter second holds a discovery
#: round's millisecond-spaced events in the active heap while leases,
#: sweeps and 30 s timeouts stay appends, and keeps that heap small
#: under a dense schedule (every event pays log of its size); a power of
#: two keeps ``time * INV`` exact.  docs/PROTOCOL.md "The timer wheel"
#: has the measurements against 1 s and 4 s.
SLOT_WIDTH = 0.25
#: ``int(time * INV_SLOT_WIDTH)`` is the slot of ``time``.
INV_SLOT_WIDTH = 1.0 / SLOT_WIDTH

#: Sweeps never trigger below this many dead entries; tiny wheels are
#: cheap to carry and sweeping them would thrash.
_MIN_SWEEP_DEAD = 64


class TimerWheel:
    """Bucketed storage for pending simulator entries.

    The wheel owns everything *not yet promoted* for delivery; the
    simulator owns the "active" heap of the slot currently being
    drained.  ``promote()`` hands over the next slot's entries (already
    stripped of cancelled ones) and advances the wheel's cursor.
    """

    __slots__ = ("cur_slot", "_buckets", "_keys", "bucketed", "dead", "sweeps")

    def __init__(self) -> None:
        #: Most recently promoted slot.  Entries at or before it belong
        #: in the simulator's active heap.
        self.cur_slot = 0
        # {slot: [entry, ...]} plus a lazy heap of slot keys (a key is
        # pushed when its bucket is created; a key whose bucket a sweep
        # emptied is skipped on promotion).
        self._buckets: dict[int, list] = {}
        self._keys: list[int] = []
        #: Physical entries currently held in buckets (dead included).
        self.bucketed = 0
        #: Cancelled entries believed still stored (buckets or active).
        self.dead = 0
        #: Dead-entry sweeps performed (reported as ``compactions``).
        self.sweeps = 0

    def insert(self, entry: tuple, slot: int) -> None:
        """File ``entry`` (whose time maps to ``slot``) into its bucket.

        The caller guarantees ``slot > cur_slot`` -- entries at or
        before the cursor go straight to the simulator's active heap.
        """
        bucket = self._buckets.get(slot)
        if bucket is None:
            self._buckets[slot] = [entry]
            heappush(self._keys, slot)
        else:
            bucket.append(entry)
        self.bucketed += 1

    def promote(self) -> list | None:
        """Pop the earliest slot; return its live entries.

        Returns ``None`` when the wheel is empty; may return an empty
        list when a slot held only cancelled entries (callers just ask
        again).  Advances :attr:`cur_slot` to the promoted slot.
        """
        keys = self._keys
        buckets = self._buckets
        while keys:
            slot = heappop(keys)
            batch = buckets.pop(slot, None)
            if batch is None:
                continue  # stale key: a sweep emptied its bucket
            self.cur_slot = slot
            self.bucketed -= len(batch)
            live = [e for e in batch if len(e) == 4 or not e[2].cancelled]
            dropped = len(batch) - len(live)
            if dropped:
                self.dead -= dropped
                if self.dead < 0:
                    self.dead = 0
            return live
        return None

    # ------------------------------------------------------------------
    # Dead-entry reclamation
    # ------------------------------------------------------------------
    def note_cancelled(self) -> None:
        """Record one cancellation; sweep when the dead outnumber the live.

        The sweep filters every bucket in place -- O(stored) work paid
        at most once per O(stored) cancellations, so ``cancel`` stays
        amortised O(1) while memory is bounded at ~2x the live set.
        (The reference heap pays full-heap rebuilds for the same
        guarantee.)
        """
        self.dead += 1
        if self.dead > _MIN_SWEEP_DEAD and self.dead * 2 > self.bucketed:
            self.sweep()

    def sweep(self) -> int:
        """Drop every cancelled entry stored in the buckets; return count."""
        removed = 0
        buckets = self._buckets
        empty_keys = []
        for key, bucket in buckets.items():
            live = [e for e in bucket if len(e) == 4 or not e[2].cancelled]
            if len(live) != len(bucket):
                removed += len(bucket) - len(live)
                if live:
                    buckets[key] = live
                else:
                    empty_keys.append(key)
        for key in empty_keys:
            del buckets[key]  # stale heap keys skipped lazily
        self.bucketed -= removed
        # Cancelled entries already promoted to the active heap are not
        # ours to reclaim; they drain within one slot anyway.
        self.dead = 0
        self.sweeps += 1
        return removed
