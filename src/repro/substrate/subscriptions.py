"""Per-broker subscription bookkeeping.

Wraps the :class:`~repro.substrate.topics.TopicTrie` with the
subscriber-oriented views a broker needs: which patterns a given
subscriber holds (so a disconnecting client can be cleaned up in one
call) and aggregate counts for usage metrics.
"""

from __future__ import annotations

from collections import defaultdict

from repro.substrate.topics import TopicTrie

__all__ = ["SubscriptionManager"]


class SubscriptionManager:
    """Tracks (pattern, subscriber) registrations for one broker."""

    #: Match-cache entries retained before a wholesale reset; topics are
    #: usually drawn from a small app-defined set, so this is rarely hit.
    _MATCH_CACHE_MAX = 2048

    def __init__(self) -> None:
        self._trie = TopicTrie()
        self._by_subscriber: dict[str, set[str]] = defaultdict(set)
        self._pattern_counts: dict[str, int] = defaultdict(int)
        # topic -> sorted matching subscribers; routing resolves the
        # same concrete topics over and over, so trie walks are cached
        # until any registration changes.
        self._match_cache: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        """Total number of live (pattern, subscriber) pairs."""
        return len(self._trie)

    def subscribe(self, pattern: str, subscriber: str) -> bool:
        """Register interest.  Returns False if it was already present."""
        added = self._trie.add(pattern, subscriber)
        if added:
            self._by_subscriber[subscriber].add(pattern)
            self._pattern_counts[pattern] += 1
            self._match_cache.clear()
        return added

    def unsubscribe(self, pattern: str, subscriber: str) -> bool:
        """Withdraw one registration.  Returns False if absent."""
        removed = self._trie.remove(pattern, subscriber)
        if removed:
            self._match_cache.clear()
            patterns = self._by_subscriber.get(subscriber)
            if patterns is not None:
                patterns.discard(pattern)
                if not patterns:
                    del self._by_subscriber[subscriber]
            self._decrement(pattern)
        return removed

    def drop_subscriber(self, subscriber: str) -> frozenset[str]:
        """Remove every registration of ``subscriber`` (client departed).

        Returns the patterns that were removed for it.
        """
        patterns = self._by_subscriber.pop(subscriber, set())
        if patterns:
            self._match_cache.clear()
        for pattern in patterns:
            self._trie.remove(pattern, subscriber)
            self._decrement(pattern)
        return frozenset(patterns)

    def _decrement(self, pattern: str) -> None:
        self._pattern_counts[pattern] -= 1
        if self._pattern_counts[pattern] <= 0:
            del self._pattern_counts[pattern]

    def has_pattern(self, pattern: str) -> bool:
        """Whether any subscriber currently holds exactly ``pattern``."""
        return pattern in self._pattern_counts

    def local_patterns(self) -> frozenset[str]:
        """Every distinct pattern with at least one subscriber."""
        return frozenset(self._pattern_counts)

    def subscribers_for(self, topic: str) -> set[str]:
        """Subscribers whose patterns match the concrete ``topic``."""
        return self._trie.match(topic)

    def sorted_subscribers_for(self, topic: str) -> tuple[str, ...]:
        """Matching subscribers in sorted order, cached per topic.

        The cache is cleared on every registration change, so the
        result is always exactly ``sorted(subscribers_for(topic))`` --
        routing uses this to skip repeated trie walks for hot topics.
        """
        cached = self._match_cache.get(topic)
        if cached is None:
            if len(self._match_cache) >= self._MATCH_CACHE_MAX:
                self._match_cache.clear()
            cached = tuple(sorted(self._trie.match(topic)))
            self._match_cache[topic] = cached
        return cached
