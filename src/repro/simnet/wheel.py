"""Hierarchical timer wheel: the simulator's bucketed pending-event store.

The reference scheduler keeps every pending callback in one binary heap,
paying O(log n) per ``schedule`` and leaving cancelled entries in place
until their fire time is reached (PR 2 bolted threshold-triggered heap
compaction on top to reclaim them).  Most timers in a long run are
retransmit guards, lease sweeps and watchdogs that get *cancelled*, so
the heap mostly sorts garbage.

:class:`TimerWheel` replaces the global heap with a hierarchy of
coarse/fine time buckets:

* **Level 0** buckets span one *tick* of virtual time (``granularity``
  seconds, default 1 ms): every entry in a level-0 bucket shares the
  same tick.
* **Levels 1-3** are coarser by factors of 256: a level-1 slot spans a
  256-tick page, level 2 a 65536-tick super-page, and level 3 is the
  open-ended catch-all (anything beyond ~4.6 hours at the default
  granularity).

``schedule`` appends to the right bucket in O(1) (a per-level key heap
is touched only when a *new* bucket is created, so consecutive inserts
into a hot slot are list appends).  ``cancel`` flips a flag -- O(1),
never a heap operation -- and the wheel sweeps dead entries out of its
buckets once they outnumber the live ones, which bounds memory at twice
the live set without the reference heap's full-heap rebuilds.

Delivery is **per-slot batched**: when the simulator drains the wheel it
promotes exactly one level-0 bucket at a time, heapifies that small
batch by ``(time, seq)``, and fires it in order.  Coarse buckets cascade
one level down as virtual time approaches them.  Because any two events
in different level-0 buckets are already time-ordered by bucket, and
ties inside a bucket resolve on the same ``(time, seq)`` key the heap
used, the observable fire order is *bit-identical* to the reference
scheduler -- the golden-digest determinism suite pins that.

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

__all__ = ["TimerWheel", "DEFAULT_GRANULARITY"]

#: Virtual seconds per level-0 tick.  1 ms groups the sub-millisecond
#: spread of one delivery burst into a single slot without ever merging
#: events a protocol timer could tell apart (exact float times are kept;
#: ticks only choose the bucket).
DEFAULT_GRANULARITY = 1e-3

#: Bits of tick resolution per level; each level is 256x coarser.
_LEVEL_BITS = 8
_L0_SPAN = 1 << _LEVEL_BITS  # 256 ticks
_L1_SPAN = 1 << (2 * _LEVEL_BITS)  # 65536 ticks
_L2_SPAN = 1 << (3 * _LEVEL_BITS)  # ~16.7M ticks

#: Sweeps never trigger below this many dead entries; tiny wheels are
#: cheap to carry and sweeping them would thrash.
_MIN_SWEEP_DEAD = 64


class TimerWheel:
    """Bucketed storage for pending simulator entries.

    The wheel owns everything *not yet promoted* for delivery; the
    simulator owns the small "active" heap of the slot currently being
    drained.  ``promote()`` hands over the next slot's entries (already
    stripped of cancelled ones) and advances the wheel's cursor.
    """

    __slots__ = (
        "granularity",
        "inv_granularity",
        "cur_tick",
        "_buckets",
        "_keys",
        "bucketed",
        "dead",
        "sweeps",
    )

    def __init__(self) -> None:
        self.granularity = DEFAULT_GRANULARITY
        self.inv_granularity = 1.0 / DEFAULT_GRANULARITY
        #: Tick of the most recently promoted level-0 slot.  Entries at
        #: or before the cursor belong in the simulator's active heap.
        self.cur_tick = 0
        # One {slot_key: [entry, ...]} map per level plus a lazy heap of
        # slot keys per level (a key is pushed when its bucket is
        # created and discarded on promotion; stale keys are skipped).
        self._buckets: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})
        self._keys: tuple[list, list, list, list] = ([], [], [], [])
        #: Physical entries currently held in buckets (dead included).
        self.bucketed = 0
        #: Cancelled entries believed still stored (buckets or active).
        self.dead = 0
        #: Dead-entry sweeps performed (reported as ``compactions``).
        self.sweeps = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def insert(self, entry: tuple, tick: int) -> None:
        """File ``entry`` (whose time maps to ``tick``) into a bucket.

        The caller guarantees ``tick > cur_tick`` -- entries at or
        before the cursor go straight to the simulator's active heap.
        """
        delta = tick - self.cur_tick
        if delta < _L0_SPAN:
            level = 0
            key = tick
        elif delta < _L1_SPAN:
            level = 1
            key = tick >> _LEVEL_BITS
        elif delta < _L2_SPAN:
            level = 2
            key = tick >> (2 * _LEVEL_BITS)
        else:
            level = 3
            key = tick >> (3 * _LEVEL_BITS)
        buckets = self._buckets[level]
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [entry]
            heappush(self._keys[level], key)
        else:
            bucket.append(entry)
        self.bucketed += 1

    # ------------------------------------------------------------------
    # Promotion / cascading
    # ------------------------------------------------------------------
    def _min_key(self, level: int) -> int | None:
        """Smallest live slot key at ``level`` (skipping stale heap keys)."""
        keys = self._keys[level]
        buckets = self._buckets[level]
        while keys:
            key = keys[0]
            if key in buckets:
                return key
            heappop(keys)
        return None

    def promote(self) -> list | None:
        """Pop the earliest level-0 slot; return its live entries.

        Coarser slots whose window could precede (or contain) the
        earliest fine slot are cascaded one level down first, so the
        returned batch is globally earliest.  Returns ``None`` when the
        wheel is empty; may return an empty list when a slot held only
        cancelled entries (callers just ask again).  Advances
        :attr:`cur_tick` to the promoted slot.
        """
        while True:
            k0 = self._min_key(0)
            # Cascade whichever coarse level could still hide an entry
            # at or before the current finest candidate.
            cascade_level = 0
            cascade_bound = k0
            for level in (1, 2, 3):
                key = self._min_key(level)
                if key is None:
                    continue
                bound = key << (_LEVEL_BITS * level)
                if cascade_bound is None or bound <= cascade_bound:
                    cascade_level = level
                    cascade_bound = bound
            if cascade_bound is None:
                return None  # completely empty
            if cascade_level == 0:
                heappop(self._keys[0])
                batch = self._buckets[0].pop(k0)
                self.cur_tick = k0
                self.bucketed -= len(batch)
                live = [e for e in batch if len(e) == 4 or not e[2].cancelled]
                dropped = len(batch) - len(live)
                if dropped:
                    self.dead -= dropped
                    if self.dead < 0:
                        self.dead = 0
                return live
            self._cascade(cascade_level)

    def _cascade(self, level: int) -> None:
        """Redistribute the earliest slot of ``level`` one level down."""
        key = heappop(self._keys[level])
        bucket = self._buckets[level].pop(key, None)
        if bucket is None:
            return  # stale key
        down = level - 1
        down_shift = _LEVEL_BITS * down
        buckets = self._buckets[down]
        keys = self._keys[down]
        dropped = 0
        inv = self.inv_granularity
        for entry in bucket:
            if len(entry) == 3 and entry[2].cancelled:
                dropped += 1  # cancelled entries leave the wheel here
                continue
            down_key = int(entry[0] * inv) >> down_shift
            target = buckets.get(down_key)
            if target is None:
                buckets[down_key] = [entry]
                heappush(keys, down_key)
            else:
                target.append(entry)
        if dropped:
            self.bucketed -= dropped
            self.dead -= dropped
            if self.dead < 0:
                self.dead = 0

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
        for level_buckets in self._buckets:
            empty_keys = []
            for key, bucket in level_buckets.items():
                live = [e for e in bucket if len(e) == 4 or not e[2].cancelled]
                if len(live) != len(bucket):
                    removed += len(bucket) - len(live)
                    if live:
                        level_buckets[key] = live
                    else:
                        empty_keys.append(key)
            for key in empty_keys:
                del level_buckets[key]  # stale heap keys skipped lazily
        self.bucketed -= removed
        # Cancelled entries already promoted to the active heap are not
        # ours to reclaim; they drain within one slot anyway.
        self.dead = 0
        self.sweeps += 1
        return removed
