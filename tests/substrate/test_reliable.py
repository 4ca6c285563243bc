"""Tests for the reliable-delivery service (paper reference [5])."""

from __future__ import annotations

import numpy as np

from repro.core.messages import Event
from repro.substrate.builder import BrokerNetwork, Topology
from repro.substrate.client import PubSubClient
from repro.substrate.reliable import (
    RELIABLE_REQUEST_TOPIC,
    SEQ_HEADER,
    STREAM_HEADER,
    EventArchive,
    ReliableDeliveryService,
    ReliablePublisher,
    ReliableSubscriber,
    replay_topic,
)


class TestEventArchive:
    def _event(self, n: int) -> Event:
        return Event(uuid=f"e{n}", topic="t", payload=bytes([n]), source="s", issued_at=0.0)

    def test_store_and_fetch_range(self):
        archive = EventArchive()
        for n in range(1, 6):
            archive.store("stream", n, self._event(n))
        fetched = archive.fetch("stream", 2, 4)
        assert [e.uuid for e in fetched] == ["e2", "e3", "e4"]

    def test_capacity_rolls_off_oldest(self):
        archive = EventArchive()
        archive.capacity = 3
        for n in range(1, 6):
            archive.store("stream", n, self._event(n))
        assert archive.fetch("stream", 1, 5) == [self._event(3), self._event(4), self._event(5)]

    def test_idempotent_store(self):
        archive = EventArchive()
        archive.store("s", 1, self._event(1))
        archive.store("s", 1, self._event(99))  # ignored
        assert archive.fetch("s", 1, 1)[0].uuid == "e1"

    def test_latest_seq(self):
        archive = EventArchive()
        assert archive.fetch("s", 1, 10) == []
        archive.store("s", 7, self._event(7))
        archive.store("s", 3, self._event(3))
        assert archive.fetch("s", 1, 10)[-1].uuid == "e7"

    def test_streams_listing(self):
        archive = EventArchive()
        archive.store("b", 1, self._event(1))
        archive.store("a", 1, self._event(2))
        assert archive.streams() == ["a", "b"]


def reliable_world(seed=0):
    """Two linked brokers; archive service on b0; pub on b0, sub on b1."""
    net = BrokerNetwork(seed=seed)
    b0 = net.add_broker("b0", site="s0")
    b1 = net.add_broker("b1", site="s1")
    net.apply_topology(Topology.LINEAR)
    service = ReliableDeliveryService(b0, pattern="jobs/**")
    net.settle()
    pub_client = PubSubClient("pub", "pub.host", net.network, np.random.default_rng(1), site="cp")
    sub_client = PubSubClient("sub", "sub.host", net.network, np.random.default_rng(2), site="cs")
    pub_client.start()
    sub_client.start()
    pub_client.connect(b0.client_endpoint)
    sub_client.connect(b1.client_endpoint)
    net.sim.run_for(1.0)
    publisher = ReliablePublisher(pub_client)
    delivered: list[Event] = []
    subscriber = ReliableSubscriber(sub_client, "jobs/**", delivered.append)
    net.sim.run_for(0.5)
    return net, service, publisher, subscriber, delivered, sub_client


class TestReliablePublisher:
    def test_sequence_numbers_per_topic(self):
        net, service, publisher, *_ = reliable_world()
        e1 = publisher.publish("jobs/a", b"1")
        e2 = publisher.publish("jobs/a", b"2")
        e3 = publisher.publish("jobs/b", b"1")
        assert e1.header(SEQ_HEADER) == "1"
        assert e2.header(SEQ_HEADER) == "2"
        assert e3.header(SEQ_HEADER) == "1"  # independent stream
        assert e1.header(STREAM_HEADER) == "pub:jobs/a"

    def test_service_archives_stamped_events(self):
        net, service, publisher, *_ = reliable_world()
        publisher.publish("jobs/a", b"x")
        publisher.publish("jobs/a", b"y")
        net.sim.run_for(1.0)
        assert [e.header(SEQ_HEADER) for e in service.archive.fetch("pub:jobs/a", 1, 9)] == ["1", "2"]

    def test_unstamped_events_not_archived(self):
        net, service, publisher, subscriber, delivered, sub_client = reliable_world()
        pub_client = publisher.client
        pub_client.publish("jobs/plain", b"unstamped")
        net.sim.run_for(1.0)
        assert service.archive.streams() == []


class TestOrderedDelivery:
    def test_in_order_stream_delivered_once_each(self):
        net, service, publisher, subscriber, delivered, _ = reliable_world()
        for i in range(5):
            publisher.publish("jobs/a", bytes([i]))
        net.sim.run_for(2.0)
        assert [e.payload for e in delivered] == [bytes([i]) for i in range(5)]
        assert subscriber.delivered == 5
        assert subscriber.gaps_requested == 0

    def test_gap_recovered_from_archive(self):
        """Subscriber misses events while disconnected; on reconnect the
        next arrival reveals the gap and the archive replays it."""
        net, service, publisher, subscriber, delivered, sub_client = reliable_world()
        publisher.publish("jobs/a", b"e1")
        net.sim.run_for(1.0)
        sub_client.disconnect()
        net.sim.run_for(0.5)
        publisher.publish("jobs/a", b"e2")  # missed
        publisher.publish("jobs/a", b"e3")  # missed
        net.sim.run_for(1.0)
        sub_client.connect(net.brokers["b1"].client_endpoint)
        net.sim.run_for(1.0)
        publisher.publish("jobs/a", b"e4")  # reveals the gap
        net.sim.run_for(3.0)
        assert [e.payload for e in delivered] == [b"e1", b"e2", b"e3", b"e4"]
        assert subscriber.gaps_requested == 1
        assert service.replays_served == 2

    def test_duplicate_events_suppressed(self):
        net, service, publisher, subscriber, delivered, _ = reliable_world()
        event = publisher.publish("jobs/a", b"x")
        net.sim.run_for(1.0)
        # Replay the same stamped event manually (e.g. duplicated path).
        publisher.client.publish(event.topic, event.payload, headers=event.headers)
        net.sim.run_for(1.0)
        assert subscriber.delivered == 1
        assert subscriber.duplicates == 1

    def test_unrecoverable_gap_stalls_the_stream(self):
        net, service, publisher, subscriber, delivered, sub_client = reliable_world()
        # Tiny archive: events fall out before recovery.
        service.archive.capacity = 1
        publisher.publish("jobs/a", b"e1")
        net.sim.run_for(1.0)
        sub_client.disconnect()
        net.sim.run_for(0.5)
        for i in range(2, 6):
            publisher.publish("jobs/a", f"e{i}".encode())
        net.sim.run_for(1.0)
        sub_client.connect(net.brokers["b1"].client_endpoint)
        net.sim.run_for(1.0)
        publisher.publish("jobs/a", b"e6")
        net.sim.run_for(3.0)
        # The hole was asked for but fell out of the archive: delivery
        # stops at it rather than skipping or reordering.
        assert subscriber.gaps_requested == 1
        assert [e.payload for e in delivered] == [b"e1"]
        assert subscriber.next_expected("pub:jobs/a") == 2

    def test_gap_not_rerequested(self):
        net, service, publisher, subscriber, delivered, sub_client = reliable_world()
        sub_client.disconnect()
        net.sim.run_for(0.5)
        publisher.publish("jobs/a", b"e1")
        net.sim.run_for(0.5)
        sub_client.connect(net.brokers["b1"].client_endpoint)
        net.sim.run_for(1.0)
        publisher.publish("jobs/a", b"e2")
        publisher.publish("jobs/a", b"e3")
        net.sim.run_for(3.0)
        assert subscriber.gaps_requested == 1  # one request covered it
        assert [e.payload for e in delivered] == [b"e1", b"e2", b"e3"]


class TestTopics:
    def test_replay_topic_shape(self):
        assert replay_topic("alice") == "Services/ReliableDelivery/Replay/alice"

    def test_request_topic_under_services(self):
        assert RELIABLE_REQUEST_TOPIC.startswith("Services/")
