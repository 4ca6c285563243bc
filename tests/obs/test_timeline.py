"""Timeline assembly: causal ordering, response fates, phase maths.

These tests build rings by hand (standalone recorders with explicit
clocks) to model out-of-order and lossy UDP arrivals -- the situations
the assembler exists to untangle.
"""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.recorder import SpanEvent
from repro.obs.timeline import (
    RequestTimeline,
    assemble,
    complete_request_ids,
    merge_events,
    normalize_trace_id,
    phase_agreement,
    render_ascii,
)
from tests.obs import emitter

TID = "req-0001"


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _observed_request(lossy_fates: bool = False) -> Observability:
    """A hand-driven request across client, bdn and three brokers."""
    clock = _Clock()
    obs = Observability(clock=clock)
    client = emitter(obs, "client")
    bdn = emitter(obs, "bdn")
    brokers = {f"b{i}": emitter(obs, f"b{i}") for i in range(3)}

    clock.now = 0.0
    client("phase", TID, phase="issue_request")
    client("request_sent", TID, kind="DiscoveryRequest", bdn="bdn")
    clock.now = 0.010
    bdn("recv", TID, kind="DiscoveryRequest")
    for name in brokers:
        bdn("inject", TID, broker=name)
    clock.now = 0.020
    client("phase", TID, phase="wait_initial_responses")
    for rec in brokers.values():
        rec("recv", TID, hop=1, kind="DiscoveryRequest")
    # b0 responds and is received; b1's fate varies; b2 suppressed.
    clock.now = 0.030
    brokers["b0"]("discovery_response", TID, broker="b0")
    brokers["b1"]("discovery_response", TID, broker="b1")
    brokers["b2"]("discovery_response_suppressed", TID, broker="b2")
    clock.now = 0.040
    client("response_received", TID, hop=2, kind="DiscoveryResponse", broker="b0")
    clock.now = 0.050
    client("phase", TID, phase="final_decision")
    clock.now = 0.060
    client("discover_done", TID, success=True)
    if lossy_fates:
        clock.now = 0.070  # b1's answer limps in after the run closed
        client("late", TID, broker="b1", kind="DiscoveryResponse")
    return obs


class TestCausalOrdering:
    def test_out_of_emission_order_sources_sorted_by_seq(self):
        clock = _Clock()
        obs = Observability(clock=clock)
        a, b = emitter(obs, "a"), emitter(obs, "b")
        # Same virtual instant; emission order is send -> recv -> close.
        a("send", TID)
        b("recv", TID)
        a("discover_done", TID)
        # merge_events visits recorders sorted by name, so b's stream is
        # read after a's -- the seq numbers must still interleave them.
        merged = assemble(obs, TID).events
        assert [e.event for e in merged] == ["send", "recv", "discover_done"]

    def test_rank_fallback_for_seqless_fixtures(self):
        # Legacy snapshots carry seq=0 everywhere; the protocol-flow
        # rank then breaks same-time ties (send before recv).
        events = [
            SpanEvent(1.0, "recv", "b", TID),
            SpanEvent(1.0, "send", "a", TID),
        ]
        merged = merge_events([events])
        assert [e.event for e in merged] == ["send", "recv"]

    def test_time_dominates_seq(self):
        clock = _Clock()
        obs = Observability(clock=clock)
        rec = emitter(obs, "n")
        clock.now = 2.0
        rec("discover_done", TID)
        clock.now = 1.0
        rec("send", TID)  # emitted later but stamped earlier
        assert [e.event for e in assemble(obs, TID)] == ["send", "discover_done"]

    def test_trace_id_filter_strips_attempt_suffix(self):
        clock = _Clock()
        obs = Observability(clock=clock)
        rec = emitter(obs, "n")
        rec("send", f"{TID}#2")
        rec("send", "other-request")
        assert normalize_trace_id(f"{TID}#2") == TID
        assert len(assemble(obs, TID)) == 1


class TestResponseFates:
    def test_all_four_fates_distinguished(self):
        obs = _observed_request(lossy_fates=True)
        fates = assemble(obs, TID).response_fates()
        assert fates == {"b0": "received", "b1": "late", "b2": "suppressed"}

    def test_responded_but_never_arrived_is_lost(self):
        obs = _observed_request()
        fates = assemble(obs, TID).response_fates()
        # b1 responded, nothing was ever received or marked late: the
        # datagram died on the UDP return path.
        assert fates["b1"] == "lost"
        assert fates["b0"] == "received"
        assert fates["b2"] == "suppressed"

    def test_received_wins_over_other_evidence(self):
        events = [
            SpanEvent(1.0, "discovery_response", "b0", TID, detail=(("broker", "b0"),)),
            SpanEvent(
                2.0,
                "response_received",
                "client",
                TID,
                detail=(("broker", "b0"), ("kind", "DiscoveryResponse")),
            ),
        ]
        fates = RequestTimeline(TID, merge_events([events])).response_fates()
        assert fates == {"b0": "received"}


class TestCompleteness:
    def test_complete_needs_start_and_done(self):
        obs = _observed_request()
        assert assemble(obs, TID).is_complete()
        assert complete_request_ids(obs) == (TID,)

    def test_done_alone_is_not_complete(self):
        clock = _Clock()
        obs = Observability(clock=clock)
        obs.emit("discover_done", "n", TID)
        assert not assemble(obs, TID).is_complete()
        assert complete_request_ids(obs) == ()

    def test_ping_and_ad_traces_excluded_from_request_ids(self):
        obs = _observed_request()
        rec = emitter(obs, "client")
        rec("send", "ping:b0", kind="PingRequest")
        rec("send", "ad:b0", kind="BrokerAdvertisement")
        assert complete_request_ids(obs) == (TID,)


class TestPhaseMaths:
    def test_phase_durations_follow_the_marks(self):
        obs = _observed_request()
        durations = assemble(obs, TID).phase_durations()
        assert durations == pytest.approx(
            {
                "issue_request": 0.020,
                "wait_initial_responses": 0.030,
                "final_decision": 0.010,
            }
        )

    def test_phase_percentages_sum_to_100(self):
        obs = _observed_request()
        percentages = assemble(obs, TID).phase_percentages()
        assert sum(percentages.values()) == pytest.approx(100.0)

    def test_phase_agreement_exact_match_is_zero(self):
        obs = _observed_request()
        timeline = assemble(obs, TID)
        assert phase_agreement(timeline, timeline.phase_percentages()) == 0.0

    def test_phase_agreement_reports_worst_phase(self):
        obs = _observed_request()
        timeline = assemble(obs, TID)
        reference = dict(timeline.phase_percentages())
        worst = next(iter(reference))
        reference[worst] += 2.5
        assert phase_agreement(timeline, reference) == pytest.approx(2.5)

    def test_agreement_counts_reference_only_phases(self):
        timeline = RequestTimeline(TID, ())
        assert phase_agreement(timeline, {"issue_request": 40.0}) == 40.0
        assert phase_agreement(timeline, {}) == 0.0


class TestRendering:
    def test_render_ascii_mentions_fates_and_duplicates(self):
        obs = _observed_request(lossy_fates=True)
        obs.emit("dup_suppressed", "b2", TID, kind="DiscoveryRequest")
        text = render_ascii(assemble(obs, TID))
        assert TID in text
        assert "late" in text
        assert "suppressed" in text
        assert "Duplicates suppressed at: b2" in text
        assert "wait_initial_responses" in text

    def test_render_elides_beyond_max_events(self):
        clock = _Clock()
        obs = Observability(clock=clock)
        rec = emitter(obs, "n")
        rec("phase", TID, phase="issue_request")
        for i in range(30):
            rec("send", TID, i=i)
        rec("discover_done", TID)
        text = render_ascii(assemble(obs, TID), max_events=10)
        assert "more events elided" in text
