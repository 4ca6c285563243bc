"""Tests for the bounded ingress queue and service-time model."""

from __future__ import annotations

import pytest

from repro.core.config import Endpoint, ServiceConfig
from repro.core.messages import Ack, PingRequest
from repro.simnet.service import IngressQueue
from repro.simnet.simulator import Simulator

SRC = Endpoint("sender.example", 1234)


class _Owner:
    """What an ingress queue needs of its node: ``emit`` and ``observing``."""

    def __init__(self, observing: bool) -> None:
        self.observing = observing
        self.heard: list[tuple] = []

    def emit(self, event, trace_id="", hop=0, **detail) -> None:
        self.heard.append((event, trace_id, hop, detail))


def _ack(n: int) -> Ack:
    return Ack(uuid=f"u{n}", acked_by="x")


class _Sink:
    """Handler recording (message, src, time) per completed service."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.calls: list[tuple[object, Endpoint, float]] = []

    def __call__(self, message, src) -> None:
        self.calls.append((message, src, self.sim.now))


class TestServiceModel:
    def test_single_message_served_after_service_time(self):
        sim = Simulator()
        sink = _Sink(sim)
        q = IngressQueue(sim, sink, ServiceConfig(service_time=0.5))
        q.deliver(_ack(0), SRC)
        assert q.depth == 1
        sim.run()
        assert [(m.uuid, t) for m, _, t in sink.calls] == [("u0", 0.5)]
        assert q.depth == 0
        assert q.served == 1

    def test_fifo_order_and_serialised_service(self):
        """A burst of arrivals drains one at a time, in arrival order."""
        sim = Simulator()
        sink = _Sink(sim)
        q = IngressQueue(sim, sink, ServiceConfig(service_time=1.0))
        for n in range(3):
            q.deliver(_ack(n), SRC)
        assert q.depth == 3
        sim.run()
        assert [(m.uuid, t) for m, _, t in sink.calls] == [
            ("u0", 1.0),
            ("u1", 2.0),
            ("u2", 3.0),
        ]

    def test_per_class_service_times(self):
        sim = Simulator()
        sink = _Sink(sim)
        config = ServiceConfig(
            service_time=1.0, service_times=(("PingRequest", 0.25),)
        )
        q = IngressQueue(sim, sink, config)
        q.deliver(
            PingRequest(uuid="p", sent_at=0.0, reply_host="h", reply_port=1), SRC
        )
        q.deliver(_ack(0), SRC)
        sim.run()
        assert [t for _, _, t in sink.calls] == [0.25, 1.25]

    def test_idle_server_starts_immediately_after_gap(self):
        sim = Simulator()
        sink = _Sink(sim)
        q = IngressQueue(sim, sink, ServiceConfig(service_time=0.5))
        q.deliver(_ack(0), SRC)
        sim.run()
        sim.schedule_at(10.0, q.deliver, _ack(1), SRC)
        sim.run()
        assert [t for _, _, t in sink.calls] == [0.5, 10.5]


class TestBounds:
    def test_overflow_drops_and_counts(self):
        sim = Simulator()
        sink = _Sink(sim)
        owner = _Owner(observing=False)
        q = IngressQueue(
            sim, sink, ServiceConfig(queue_capacity=2, service_time=1.0), owner=owner
        )
        for n in range(5):
            q.deliver(_ack(n), SRC)
        assert q.depth == 2
        assert q.overflows == 3
        # Detail values arrive unstringified; the sink normalises
        # them lazily only when records are kept.
        assert owner.heard == [
            ("queue_overflow", "", 0, {"kind": "Ack", "depth": 2})
        ] * 3
        sim.run()
        assert [m.uuid for m, _, _ in sink.calls] == ["u0", "u1"]

    def test_single_hook_hears_overflow_enqueue_and_dequeue(self):
        # The owning node's emit carries all three: the plain
        # queue_overflow, and enqueue/dequeue for a message that carries
        # trace context (and only for such a message).
        sim = Simulator()
        owner = _Owner(observing=True)
        q = IngressQueue(
            sim, _Sink(sim), ServiceConfig(queue_capacity=1, service_time=1.0), owner=owner
        )
        traced = PingRequest(
            uuid="p#1", sent_at=0.0, reply_host="h", reply_port=1, trace_flag=True, trace_hop=3
        )
        q.deliver(traced, SRC)
        q.deliver(_ack(0), SRC)  # untraced and over capacity
        sim.run()
        q.deliver(_ack(1), SRC)  # untraced, accepted: nothing to say
        assert owner.heard == [
            ("enqueue", "p", 3, {"kind": "PingRequest"}),
            ("dequeue", "p", 3, {"kind": "PingRequest"}),
            ("queue_overflow", "", 0, {"kind": "Ack", "depth": 1}),
        ]

    def test_unobserving_owner_never_inspects_the_message(self):
        # Asking a lazily decoded wire view for its trace context would
        # materialise it (and raise on a bad body) before the handler's
        # own guarded decode: only an observing owner pays that.
        class Opaque:
            def __getattr__(self, name):
                raise AssertionError(f"queue read .{name} of an unobserved message")

        sim = Simulator()
        owner = _Owner(observing=False)
        q = IngressQueue(sim, _Sink(sim), ServiceConfig(service_time=1.0), owner=owner)
        q.deliver(Opaque(), SRC)
        sim.run()
        assert q.served == 1 and owner.heard == []

    def test_capacity_counts_message_in_service(self):
        sim = Simulator()
        q = IngressQueue(sim, _Sink(sim), ServiceConfig(queue_capacity=1))
        q.deliver(_ack(0), SRC)
        q.deliver(_ack(1), SRC)
        assert q.depth == 1
        assert q.overflows == 1

    def test_max_depth_tracks_peak(self):
        sim = Simulator()
        q = IngressQueue(sim, _Sink(sim), ServiceConfig(queue_capacity=8))
        for n in range(5):
            q.deliver(_ack(n), SRC)
        sim.run()
        assert q.max_depth == 5
        assert q.depth == 0


class TestAdmission:
    def test_admit_false_sheds_without_queueing(self):
        sim = Simulator()
        sink = _Sink(sim)
        q = IngressQueue(
            sim,
            sink,
            ServiceConfig(),
            admit=lambda message, src: message.uuid != "u1",
        )
        for n in range(3):
            q.deliver(_ack(n), SRC)
        sim.run()
        assert [m.uuid for m, _, _ in sink.calls] == ["u0", "u2"]
        assert q.shed == 1
        assert q.overflows == 0

    def test_shed_message_does_not_count_as_overflow_candidate(self):
        sim = Simulator()
        q = IngressQueue(
            sim,
            _Sink(sim),
            ServiceConfig(queue_capacity=1),
            admit=lambda message, src: False,
        )
        q.deliver(_ack(0), SRC)
        assert q.depth == 0
        assert q.shed == 1
        assert q.overflows == 0


class TestReset:
    def test_reset_drops_waiting_and_in_service(self):
        sim = Simulator()
        sink = _Sink(sim)
        q = IngressQueue(sim, sink, ServiceConfig(service_time=1.0))
        for n in range(3):
            q.deliver(_ack(n), SRC)
        q.reset()
        sim.run()
        assert sink.calls == []
        assert q.depth == 0

    def test_counters_survive_reset(self):
        sim = Simulator()
        q = IngressQueue(sim, _Sink(sim), ServiceConfig(queue_capacity=1))
        q.deliver(_ack(0), SRC)
        q.deliver(_ack(1), SRC)
        sim.run()
        q.reset()
        assert q.served == 1
        assert q.overflows == 1

    def test_queue_usable_after_reset(self):
        sim = Simulator()
        sink = _Sink(sim)
        q = IngressQueue(sim, sink, ServiceConfig(service_time=0.5))
        q.deliver(_ack(0), SRC)
        q.reset()
        sim.run()
        q.deliver(_ack(1), SRC)
        sim.run()
        assert [m.uuid for m, _, _ in sink.calls] == ["u1"]
        assert q.served == 1


class TestErrorPropagation:
    def test_handler_exception_does_not_stall_queue(self):
        sim = Simulator()
        good: list[str] = []

        def handler(message, src):
            if message.uuid == "u0":
                raise RuntimeError("boom")
            good.append(message.uuid)

        q = IngressQueue(sim, handler, ServiceConfig(service_time=1.0))
        q.deliver(_ack(0), SRC)
        q.deliver(_ack(1), SRC)
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert good == ["u1"]
