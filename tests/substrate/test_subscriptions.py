"""Tests for the broker-side subscription manager."""

from __future__ import annotations

from repro.substrate.subscriptions import SubscriptionManager


class TestSubscriptionManager:
    def test_subscribe_and_match(self):
        mgr = SubscriptionManager()
        assert mgr.subscribe("a/**", "alice") is True
        assert mgr.subscribers_for("a/b") == {"alice"}

    def test_duplicate_subscribe_rejected(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        assert mgr.subscribe("a", "alice") is False
        assert len(mgr) == 1

    def test_unsubscribe(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        assert mgr.unsubscribe("a", "alice") is True
        assert mgr.subscribers_for("a") == set()
        assert mgr.unsubscribe("a", "alice") is False

    def test_patterns_of_subscriber(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        mgr.subscribe("b/*", "alice")
        mgr.subscribe("c", "bob")
        assert mgr.drop_subscriber("alice") == {"a", "b/*"}
        assert mgr.drop_subscriber("ghost") == frozenset()

    def test_drop_subscriber_removes_everything(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        mgr.subscribe("b/**", "alice")
        mgr.subscribe("a", "bob")
        removed = mgr.drop_subscriber("alice")
        assert removed == {"a", "b/**"}
        assert mgr.subscribers_for("a") == {"bob"}
        assert mgr.subscribers_for("b/x") == set()
        assert mgr.drop_subscriber("alice") == frozenset()

    def test_drop_unknown_subscriber_is_empty(self):
        mgr = SubscriptionManager()
        assert mgr.drop_subscriber("ghost") == frozenset()

    def test_has_pattern_tracks_counts(self):
        mgr = SubscriptionManager()
        assert not mgr.has_pattern("a")
        mgr.subscribe("a", "alice")
        mgr.subscribe("a", "bob")
        assert mgr.has_pattern("a")
        mgr.unsubscribe("a", "alice")
        assert mgr.has_pattern("a")  # bob still holds it
        mgr.unsubscribe("a", "bob")
        assert not mgr.has_pattern("a")

    def test_local_patterns(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        mgr.subscribe("b/*", "bob")
        assert mgr.local_patterns() == {"a", "b/*"}
        mgr.drop_subscriber("alice")
        assert mgr.local_patterns() == {"b/*"}

    def test_subscriber_count(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        mgr.subscribe("b", "alice")
        mgr.subscribe("c", "bob")
        mgr.unsubscribe("c", "bob")
        assert mgr.drop_subscriber("bob") == frozenset()
        assert mgr.drop_subscriber("alice") == {"a", "b"}

    def test_unsubscribe_last_pattern_clears_subscriber(self):
        mgr = SubscriptionManager()
        mgr.subscribe("a", "alice")
        mgr.unsubscribe("a", "alice")
        assert len(mgr) == 0
        assert mgr.drop_subscriber("alice") == frozenset()
