"""The event sink: ring semantics, the plain log, checked names, counters."""

from __future__ import annotations

import pytest

from repro.obs import Observability, UnknownEventError
from repro.obs.recorder import DEFAULT_RING_CAPACITY, FlightRecorder, SpanEvent
from tests.obs import emitter


class _Clock:
    """A settable test clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _ring(capacity: int = DEFAULT_RING_CAPACITY, clock=None):
    """An observing sink and ``emit(event, trace_id, ...)`` as node n0."""
    obs = Observability(clock=clock, ring_capacity=capacity)
    return obs, emitter(obs, "n0")


class TestRingWraparound:
    def test_under_capacity_keeps_everything(self):
        obs, emit = _ring(8)
        for i in range(5):
            emit("send", f"t{i}")
        rec = obs.recorders["n0"]
        assert len(rec) == 5
        assert rec.dropped == 0
        assert rec.emitted == 5

    def test_overflow_drops_oldest_and_counts(self):
        clock = _Clock()
        obs, emit = _ring(4, clock)
        for i in range(10):
            clock.now = float(i)
            emit("send", f"t{i}")
        rec = obs.recorders["n0"]
        assert len(rec) == 4
        assert rec.dropped == 6
        assert rec.emitted == 10
        # The survivors are the newest four, in emission order.
        assert [e.trace_id for e in rec.snapshot()] == ["t6", "t7", "t8", "t9"]
        # The counter is not a ring: it saw all ten.
        assert obs.count("send") == 10

    def test_snapshot_chronological_across_wrap_point(self):
        clock = _Clock()
        obs, emit = _ring(3, clock)
        for i in range(5):  # wraps, _next lands mid-ring
            clock.now = float(i)
            emit("recv", f"t{i}")
        snapshot = obs.recorders["n0"].snapshot()
        times = [e.time for e in snapshot]
        assert times == sorted(times)
        seqs = [e.seq for e in snapshot]
        assert seqs == sorted(seqs)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder("n0", capacity=0)
        with pytest.raises(ValueError):
            Observability(ring_capacity=-1)

    def test_default_capacity_bounds_a_soak(self):
        obs, emit = _ring()
        for _ in range(3 * DEFAULT_RING_CAPACITY):
            emit("send", "t")
        rec = obs.recorders["n0"]
        assert len(rec) == DEFAULT_RING_CAPACITY
        assert rec.dropped == 2 * DEFAULT_RING_CAPACITY

    def test_clear_resets_ring(self):
        obs, emit = _ring(2)
        for _ in range(5):
            emit("send", "t")
        obs.clear()
        assert len(obs.recorders["n0"]) == 0
        assert obs.count("send") == 0
        emit("send", "t-after")
        assert [e.trace_id for e in obs.recorders["n0"].snapshot()] == ["t-after"]


class TestCheckedEventNames:
    def test_unknown_event_name_raises(self):
        obs, emit = _ring()
        with pytest.raises(UnknownEventError):
            emit("sennd", "t0")  # typo fails loudly, not silently
        assert not obs.recorders

    def test_unknown_plain_name_raises_too(self):
        # Before the merge only causal names were checked at runtime.
        for obs in (Observability(), Observability(ring_capacity=0)):
            with pytest.raises(UnknownEventError):
                obs.emit("request_retransmitt", "n0")
            with pytest.raises(UnknownEventError):
                obs.count("request_retransmitt")
            assert len(obs.registry) == 0

    def test_known_trace_event_is_not_a_span(self):
        # A plain name keeps its kind when it carries a trace id: a fact
        # about a traced request, always counted, and kept in the ring
        # (with its trace id and hop) only while the world observes ...
        obs, emit = _ring()
        emit("bdn_busy", "t0", 2, depth=3)
        assert obs.count("bdn_busy") == 1
        (event,) = obs.recorders["n0"].snapshot()
        assert (event.event, event.trace_id, event.hop) == ("bdn_busy", "t0", 2)
        quiet = Observability(ring_capacity=0, keep_trace=True)
        quiet.emit("bdn_busy", "n0", "t0", 2, depth=3)
        assert quiet.count("bdn_busy") == 1 and not quiet.recorders
        assert [(e.trace_id, e.hop) for e in quiet.log] == [("t0", 2)]

    def test_causal_name_without_trace_id_raises(self):
        # ... nor a causal one without the request it belongs to.
        for obs in (Observability(), Observability(ring_capacity=0)):
            with pytest.raises(UnknownEventError, match="needs a trace id"):
                obs.emit("send", "n0")
            assert obs.count("send") == 0

    def test_name_is_validated_once_not_per_event(self, monkeypatch):
        import repro.obs.recorder as obs_module

        obs = Observability(ring_capacity=0)
        obs.emit("udp_drop", "n0")
        monkeypatch.setattr(
            obs_module, "is_causal", lambda event: pytest.fail("re-validated a known name")
        )
        obs.emit("udp_drop", "n0")
        assert obs.registry.read("obs.event.udp_drop") == 2


class TestEmissionSequence:
    def test_seq_monotonic_within_one_recorder(self):
        obs, emit = _ring()
        for _ in range(6):
            emit("send", "t")
        seqs = [e.seq for e in obs.recorders["n0"].snapshot()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 6

    def test_seq_shared_across_recorders_of_one_world(self):
        obs = Observability()
        obs.emit("send", "a", "t")
        obs.emit("recv", "b", "t")
        obs.emit("discover_done", "a", "t")
        # Interleaved emission across nodes still yields one total order.
        assert [e.seq for e in obs.recorders["a"].snapshot()] == [0, 2]
        assert [e.seq for e in obs.recorders["b"].snapshot()] == [1]

    def test_span_counter_published_to_registry(self):
        # One namespace for both kinds, in the world's registry.
        obs, emit = _ring()
        emit("send", "t")
        emit("send", "t")
        obs.emit("udp_drop", "n0")
        assert obs.registry.read("obs.event.send") == 2
        assert obs.registry.read("obs.event.udp_drop") == 1
        assert obs.count("send") == 2 and obs.count("udp_drop") == 1
        assert obs.count("recv") == 0  # known, never emitted


class TestSinkThatIsNotObserving:
    def test_counts_plain_events_and_nothing_else(self):
        obs = Observability(ring_capacity=0)
        assert not obs.observing
        obs.emit("udp_drop", "h0", dst="h1")
        obs.emit("send", "n0", "req-1", kind="DiscoveryRequest")  # causal: a no-op
        assert obs.count("udp_drop") == 1
        assert obs.count("send") == 0
        assert not obs.recorders and obs.log is None
        assert obs.registry.names() == ("obs.event.udp_drop",)

    def test_creates_no_ring_and_sets_no_wire_flag(self):
        # A client holding a sink that is not observing puts the same
        # bytes on the wire as a client holding none.
        import numpy as np

        from repro.core.codec import encode_message
        from repro.core.config import ClientConfig, Endpoint
        from repro.core.messages import DiscoveryRequest
        from repro.discovery.requester import DiscoveryClient
        from repro.substrate.builder import BrokerNetwork

        def first_request(with_sink: bool) -> tuple[bytes, BrokerNetwork]:
            net = BrokerNetwork(seed=3)
            net.network.register_host("bdn.host", "bdn-site")
            bdn = Endpoint("bdn.host", 7000)
            heard: list = []
            net.network.bind_udp(bdn, lambda message, src: heard.append(message))
            client = DiscoveryClient(
                "c0",
                "c0.host",
                net.network,
                np.random.default_rng(5),
                config=ClientConfig(bdn_endpoints=(bdn,)),
                site="client-site",
                obs=net.obs if with_sink else None,
            )
            client.start()
            net.sim.run_for(6.0)
            client.discover(lambda outcome: None)
            net.sim.run_for(0.5)
            assert isinstance(heard[0], DiscoveryRequest)
            return encode_message(heard[0]), net

        with_sink, net = first_request(True)
        without, _ = first_request(False)
        assert with_sink == without
        assert not net.obs.recorders
        assert net.obs.count("request_sent") == 1  # ... but it was heard


class TestPlainLog:
    """What ``simnet.trace.Tracer`` did, now asserted against the sink."""

    @staticmethod
    def _sink(clock=None, keep_trace: bool = True) -> Observability:
        return Observability(clock=clock, ring_capacity=0, keep_trace=keep_trace)

    def test_records_capture_time_and_detail(self):
        clock = _Clock()
        obs = self._sink(clock)
        obs.emit("link_up", "node1", key="value")
        clock.now = 5.0
        obs.emit("link_up", "node2")
        assert len(obs.log) == 2
        assert obs.log[0].time == 0.0
        assert obs.log[0].detail == (("key", "value"),)
        assert (obs.log[0].trace_id, obs.log[0].hop) == ("", 0)
        assert obs.log[1].time == 5.0

    def test_counters_accumulate(self):
        obs = self._sink()
        for _ in range(3):
            obs.emit("link_up", "n")
        obs.emit("link_down", "n")
        assert obs.count("link_up") == 3
        assert obs.count("link_down") == 1
        assert obs.count("link_retry") == 0

    def test_counters_only_mode(self):
        # Counter-only mode allocates no record.
        obs = self._sink(keep_trace=False)
        obs.emit("link_up", "n")
        assert obs.log is None
        assert obs.events("link_up") == []
        assert obs.count("link_up") == 1

    def test_events_filter(self):
        obs = self._sink()
        obs.emit("link_up", "n1")
        obs.emit("link_down", "n2")
        obs.emit("link_up", "n3")
        assert [r.node for r in obs.events("link_up")] == ["n1", "n3"]

    def test_events_serves_causal_names_from_the_rings(self):
        obs = Observability()
        obs.emit("send", "b", "t1")
        obs.emit("recv", "a", "t1")
        obs.emit("send", "a", "t2")
        assert [(e.node, e.trace_id) for e in obs.events("send")] == [("b", "t1"), ("a", "t2")]

    def test_clear(self):
        obs = self._sink()
        obs.emit("link_up", "n")
        obs.clear()
        assert obs.log == []
        assert obs.count("link_up") == 0

    def test_detail_values_coerced_to_str(self):
        obs = self._sink()
        obs.emit("link_up", "n", count=17)
        assert obs.log[0].detail == (("count", "17"),)

    def test_events_index_survives_interleaved_queries(self):
        # events() serves from a per-event index, not a rescan; queries
        # between records must not return stale or shared lists.
        obs = self._sink()
        obs.emit("link_up", "n1")
        first = obs.events("link_up")
        obs.emit("link_up", "n2")
        assert [r.node for r in first] == ["n1"]  # caller's copy unaffected
        assert [r.node for r in obs.events("link_up")] == ["n1", "n2"]

    def test_clear_resets_the_event_index(self):
        obs = self._sink()
        obs.emit("link_up", "n")
        obs.clear()
        assert obs.events("link_up") == []
        obs.emit("link_up", "n2")
        assert [r.node for r in obs.events("link_up")] == ["n2"]

    def test_counter_only_mode_never_stringifies_detail(self):
        class Expensive:
            def __str__(self) -> str:
                raise AssertionError("stringified in counter-only mode")

        obs = self._sink(keep_trace=False)
        obs.emit("link_up", "n", payload=Expensive())  # must not raise
        assert obs.count("link_up") == 1

    def test_observing_sink_keeps_plain_events_out_of_the_rings(self):
        obs = Observability(keep_trace=True)
        obs.emit("link_up", "n")
        obs.emit("send", "n", "t")
        assert [e.event for e in obs.log] == ["link_up"]
        assert [e.event for e in obs.recorders["n"].snapshot()] == ["send"]


class TestSpanEventValue:
    def test_detail_normalised_and_sorted(self):
        obs, emit = _ring()
        emit("send", "t", zulu=1, alpha="x")
        event = obs.recorders["n0"].snapshot()[0]
        assert event.detail == (("alpha", "x"), ("zulu", "1"))

    def test_dict_roundtrip_preserves_seq(self):
        event = SpanEvent(1.5, "recv", "n0", "t0", hop=2, detail=(("k", "v"),), seq=7)
        clone = SpanEvent.from_dict(event.to_dict())
        assert clone == event
        assert clone.seq == 7

    def test_equality_ignores_seq(self):
        # seq is an ordering aid, not part of event identity.
        a = SpanEvent(1.0, "send", "n", "t", seq=1)
        b = SpanEvent(1.0, "send", "n", "t", seq=2)
        assert a == b
        assert hash(a) == hash(b)
