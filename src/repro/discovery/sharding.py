"""Sharded BDN registry: consistent-hash partitioning of the broker table.

A single :class:`~repro.discovery.advertisement.AdvertisementStore` plus
one :class:`~repro.core.dedup.DedupCache` is the paper's BDN exactly, and
it is fine up to a few thousand registered brokers.  Past ~10k ads the
flat table starts to hurt: every lease sweep walks the whole dict in one
simulated instant and the duplicate-UUID cache churns as one global LRU.

This module partitions both structures by **consistent hash of broker
id**:

* :class:`HashRing` places :data:`DEFAULT_VNODES` points per shard on a CRC-32 ring
  and maps any key to the owning shard with one ``bisect``.  Consistent
  hashing means growing an ``n``-shard ring to ``n + 1`` shards reassigns
  roughly ``1/(n+1)`` of the keys -- the rest keep their shard, so a
  resize invalidates only a fraction of per-shard state.
* :class:`ShardedRegistry` fronts ``shards`` independent
  ``AdvertisementStore`` instances behind the *exact* store API the rest
  of the code base already speaks (``accept`` / ``accept_if_newer`` /
  ``get`` / ``all`` / ``evict_expired`` / ...).  Reads that must be
  globally ordered merge the per-shard sorted views with
  :func:`heapq.merge` (O(n log s), not a fresh O(n log n) sort).
* :class:`ShardedDedup` does the same for the duplicate-request cache:
  a *global* entry budget (the paper's "last 1000 requests") divided
  evenly across per-shard LRUs.  Discovery dedup keys are
  ``(uuid, attempt)`` tuples; the router hashes ``key[0]`` so every
  attempt of one request lands on the same shard.

With ``shards=1`` (the default everywhere) each facade degenerates to a
single backing store and the behaviour -- including iteration order,
counter values, and LRU eviction order -- is bit-identical to the
unsharded code.  The golden determinism digests pin that.

Replication (PR 6) is untouched: deltas are keyed by broker id on the
wire, so a replica applies each delta into whatever shard its own ring
assigns.  Shard layout is node-local, never wire-visible.
"""

from __future__ import annotations

import heapq
from binascii import crc32
from bisect import bisect_right
from collections.abc import Iterator

from repro.core.dedup import DEFAULT_CAPACITY, DedupCache
from repro.core.errors import ConfigError
from repro.core.messages import BrokerAdvertisement
from repro.discovery.advertisement import AdvertisementStore, StoredAdvertisement

__all__ = ["HashRing", "ShardedDedup", "ShardedRegistry"]

#: Virtual nodes per shard on the ring.  64 keeps the max/min shard load
#: ratio under ~1.3 for random ids while the ring stays tiny (64 * s
#: points) and cheap to rebuild on a resize.
DEFAULT_VNODES = 64


class HashRing:
    """Consistent-hash ring mapping string keys to shard indices.

    Parameters
    ----------
    shards:
        Number of shards (>= 1).

    Examples
    --------
    >>> ring = HashRing(4)
    >>> 0 <= ring.shard_of("broker-17") < 4
    True
    >>> ring.shard_of("broker-17") == ring.shard_of("broker-17")
    True
    """

    __slots__ = ("shards", "_points", "_owners")

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(DEFAULT_VNODES):
                point = crc32(f"shard:{shard}:{replica}".encode())
                points.append((point, shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (clockwise-next vnode on the ring)."""
        if self.shards == 1:
            return 0
        h = crc32(key.encode())
        i = bisect_right(self._points, h)
        if i == len(self._points):
            i = 0
        return self._owners[i]


class ShardedDedup:
    """A global duplicate-cache budget split across per-shard LRUs.

    Keys are routed by broker-independent request identity: a plain
    string hashes as itself, and a ``(uuid, attempt)`` tuple hashes by
    ``uuid`` so every retry attempt of one request shares a shard (the
    retry path relies on attempt-level dedup keys co-residing).

    Eviction is per-shard LRU over ``DEFAULT_CAPACITY // shards`` entries each, so
    the documented global budget holds while one flooded shard cannot
    evict another shard's in-flight request keys.  With ``shards=1``
    this is exactly one :class:`~repro.core.dedup.DedupCache` of the
    full budget.
    """

    __slots__ = ("_ring", "_caches")

    def __init__(self, ring: HashRing) -> None:
        if DEFAULT_CAPACITY < ring.shards:
            raise ConfigError(
                f"dedup budget {DEFAULT_CAPACITY} is smaller than shard count {ring.shards}"
            )
        self._ring = ring
        self._caches = [
            DedupCache(capacity=DEFAULT_CAPACITY // ring.shards) for _ in range(ring.shards)
        ]

    def _route(self, key: object) -> DedupCache:
        if self._ring.shards == 1:
            return self._caches[0]
        name = key[0] if isinstance(key, tuple) else key
        return self._caches[self._ring.shard_of(str(name))]

    @property
    def shards(self) -> list[DedupCache]:
        """The per-shard caches, in shard order (read-only introspection)."""
        return list(self._caches)

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self._caches)

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self._caches)

    def __len__(self) -> int:
        return sum(len(c) for c in self._caches)

    def __contains__(self, key: object) -> bool:
        return key in self._route(key)

    def seen(self, key: object) -> bool:
        """Record ``key`` on its shard; True iff it was already present."""
        return self._route(key).seen(key)

    def add(self, key: object) -> None:
        self._route(key).add(key)

    def discard(self, key: object) -> None:
        self._route(key).discard(key)

    def clear(self) -> None:
        """Drop every entry on every shard (counters preserved)."""
        for cache in self._caches:
            cache.clear()

    def reset(self) -> None:
        """Recreate every shard cache -- a cold restart's empty memory.

        Unlike :meth:`clear` this also zeroes the hit/miss counters,
        matching the old ``self.dedup = DedupCache()`` restart idiom.
        """
        self._caches = [
            DedupCache(capacity=DEFAULT_CAPACITY // self._ring.shards)
            for _ in range(self._ring.shards)
        ]


class ShardedRegistry:
    """``shards`` advertisement stores behind the single-store API.

    Every method of
    :class:`~repro.discovery.advertisement.AdvertisementStore` is
    implemented here with identical semantics; callers (the BDN itself,
    replication's snapshot/delta paths, the cluster worker's status
    endpoint, the tests) never see the partitioning.  Globally-ordered
    reads (``all``, ``broker_ids``, ``evict_expired``) merge the
    per-shard sorted views.

    Parameters
    ----------
    shards:
        Number of partitions.  1 (default) is bit-identical to a plain
        ``AdvertisementStore``.
    interest_regions:
        Forwarded to every shard (the section 2.3 interest filter).

    The duplicate cache holds the paper's 1000 entries in all, split
    across the shards.
    """

    def __init__(
        self,
        shards: int = 1,
        interest_regions: frozenset[str] = frozenset(),
    ) -> None:
        self.ring = HashRing(shards)
        self._shards = [
            AdvertisementStore(interest_regions) for _ in range(shards)
        ]
        self.dedup = ShardedDedup(self.ring)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[AdvertisementStore]:
        """The backing stores, in shard order (read-only introspection)."""
        return list(self._shards)

    def shard(self, index: int) -> AdvertisementStore:
        """The backing store at ``index`` (the per-shard sweep path)."""
        return self._shards[index]

    def shard_for(self, broker_id: str) -> AdvertisementStore:
        """The store owning ``broker_id``."""
        return self._shards[self.ring.shard_of(broker_id)]

    @property
    def ignored(self) -> int:
        """Interest-filter rejections, summed across shards."""
        return sum(s.ignored for s in self._shards)

    @property
    def leases_expired(self) -> int:
        """Lease evictions, summed across shards."""
        return sum(s.leases_expired for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, broker_id: str) -> bool:
        return broker_id in self.shard_for(broker_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self.broker_ids())

    # ------------------------------------------------------------------
    # Writes (route to the owning shard)
    # ------------------------------------------------------------------
    def accept(self, ad: BrokerAdvertisement, now: float) -> bool:
        return self.shard_for(ad.broker_id).accept(ad, now)

    def accept_if_newer(self, ad: BrokerAdvertisement, now: float) -> bool:
        return self.shard_for(ad.broker_id).accept_if_newer(ad, now)

    def remove(self, broker_id: str) -> bool:
        return self.shard_for(broker_id).remove(broker_id)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    # ------------------------------------------------------------------
    # Reads (merge the per-shard sorted views)
    # ------------------------------------------------------------------
    def get(self, broker_id: str) -> StoredAdvertisement | None:
        return self.shard_for(broker_id).get(broker_id)

    def all(self, now: float | None = None) -> list[StoredAdvertisement]:
        """Stored advertisements, ordered by broker id across all shards."""
        if len(self._shards) == 1:
            return self._shards[0].all(now)
        views = [s.all(now) for s in self._shards]
        return list(heapq.merge(*views, key=lambda s: s.broker_id))

    def broker_ids(self, now: float | None = None) -> list[str]:
        if len(self._shards) == 1:
            return self._shards[0].broker_ids(now)
        return list(heapq.merge(*(s.broker_ids(now) for s in self._shards)))

    def evict_expired(self, now: float) -> list[str]:
        """Evict lapsed leases on every shard; globally sorted evicted ids."""
        if len(self._shards) == 1:
            return self._shards[0].evict_expired(now)
        return list(heapq.merge(*(s.evict_expired(now) for s in self._shards)))
