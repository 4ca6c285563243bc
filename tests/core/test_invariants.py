"""Every soak predicate: holds / breached / boundary / evidence absent.

The harnesses (chaos, exit report, live monitor, cluster_compare) only
gather evidence and format; what is decided is decided here, so this
table is the one place a predicate's edge cases are pinned.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.invariants import (
    LIVE_ELECTION_EPS,
    SIM_ELECTION_EPS,
    Breach,
    Evidence,
    QueueStats,
    bdn_evidence,
    breaker_recovered,
    convergence,
    election_safety,
    failed,
    failed_discoveries,
    handler_errors,
    latency_bound,
    latency_budget,
    phase_accounting,
    queue_bounds,
    reconnect,
    recorded,
    selected_alive,
    stale_targets,
    terminates,
    verdict,
    zero_failed,
)


def rnd(i, success=True, aborted=False):
    return {
        "client": "c0", "round": i, "uuid": f"u{i}", "via": "bdn",
        "success": success, "aborted": aborted,
    }


def queue(capacity=32, max_depth=0, depth=0, overflows=0):
    return QueueStats(capacity, max_depth, depth, overflows)


D0 = ("d0", 1.0, 0.0, 5.0)

#: (case id, breaches returned, invariant names expected)
CASES = [
    # -- zero failed discoveries --------------------------------------
    ("failed/holds", failed_discoveries([rnd(0), rnd(1)]), []),
    ("failed/breached", failed_discoveries([rnd(0), rnd(1, success=False)]),
     ["zero_failed_discoveries"]),
    ("failed/each-round-named",
     failed_discoveries([rnd(0, success=False), rnd(1, success=False)]),
     ["zero_failed_discoveries"] * 2),
    ("failed/drain-abort-excluded",
     failed_discoveries([rnd(0), rnd(1, success=False, aborted=True)]), []),
    ("failed/non-aborted-counted",
     failed_discoveries([rnd(0, success=False, aborted=False)]),
     ["zero_failed_discoveries"]),
    ("failed/absent", failed_discoveries(None), ["no_evidence"]),
    ("failed/empty", failed_discoveries([]), ["no_evidence"]),
    ("failed/all-aborted", failed_discoveries([rnd(0, success=False, aborted=True)]),
     ["no_evidence"]),
    ("failed/count-zero", zero_failed("load#0", 0), []),
    ("failed/count", zero_failed("load#0", 2), ["zero_failed_discoveries"]),
    # -- election safety ----------------------------------------------
    ("election/disjoint", election_safety([D0, ("d1", 2.0, 5.2, 9.0)], LIVE_ELECTION_EPS), []),
    ("election/overlap", election_safety([D0, ("d1", 2.0, 4.0, 9.0)], LIVE_ELECTION_EPS),
     ["election_safety"]),
    ("election/same-member", election_safety([D0, ("d0", 2.0, 4.0, 9.0)], LIVE_ELECTION_EPS),
     []),
    ("election/adjacent", election_safety([D0, ("d1", 2.0, 5.0, 9.0)], SIM_ELECTION_EPS), []),
    ("election/sub-eps-live",
     election_safety([D0, ("d1", 2.0, 5.0 - 0.03, 9.0)], LIVE_ELECTION_EPS), []),
    ("election/same-overlap-sim",
     election_safety([D0, ("d1", 2.0, 5.0 - 0.03, 9.0)], SIM_ELECTION_EPS),
     ["election_safety"]),
    ("election/nobody-led", election_safety([], SIM_ELECTION_EPS), []),
    ("election/absent", election_safety(None, SIM_ELECTION_EPS), ["no_evidence"]),
    # -- queue bounds --------------------------------------------------
    ("queue/holds", queue_bounds("d0", queue(max_depth=12, depth=3), 8), []),
    ("queue/at-capacity", queue_bounds("d0", queue(max_depth=32), 8), []),
    ("queue/over-capacity", queue_bounds("d0", queue(max_depth=33), 8), ["queue_capacity"]),
    ("queue/overflow", queue_bounds("d0", queue(overflows=1), 8), ["queue_overflow"]),
    ("queue/at-watermark", queue_bounds("d0", queue(max_depth=8, depth=8), 8), []),
    ("queue/over-watermark", queue_bounds("d0", queue(max_depth=9, depth=9), 8),
     ["queue_watermark"]),
    ("queue/in-flight-depth-not-judged", queue_bounds("d0", queue(max_depth=9, depth=9)), []),
    ("queue/everything",
     queue_bounds("d0", queue(max_depth=40, depth=20, overflows=3), 8),
     ["queue_capacity", "queue_overflow", "queue_watermark"]),
    ("queue/absent", queue_bounds("d0", None, 8), ["no_evidence"]),
    # -- stale targets -------------------------------------------------
    ("stale/holds", stale_targets("d0", 0), []),
    ("stale/breached", stale_targets("d0", 1), ["stale_targets"]),
    # -- p99 bound -----------------------------------------------------
    ("p99/holds", latency_bound(0.4, 3.0), []),
    ("p99/at-bound", latency_bound(3.0, 3.0), []),
    ("p99/breached", latency_bound(3.001, 3.0), ["p99_bound"]),
    ("p99/absent", latency_bound(None, 3.0), ["no_evidence"]),
    # -- latency budget (25 % of windows, plus one window of grace) ------
    ("budget/within", latency_budget(4.0, 3.0, 2, 4, 0.25), []),
    ("budget/exhausted", latency_budget(4.0, 3.0, 3, 4, 0.25), ["latency_budget"]),
    ("budget/fast-window-spends-nothing", latency_budget(2.0, 3.0, 3, 4, 0.25), []),
    ("budget/no-latencies", latency_budget(None, 3.0, 3, 4, 0.25), []),
    # -- handler errors ------------------------------------------------
    ("handler/holds", handler_errors("load#0", 0), []),
    ("handler/breached", handler_errors("load#0", 1), ["handler_errors"]),
    # -- termination ---------------------------------------------------
    ("terminates/holds", terminates("windowed", None, True), []),
    ("terminates/raised", terminates("windowed", "boom", False), ["terminates"]),
    ("terminates/cap", terminates("windowed", None, False), ["terminates"]),
    # -- phase accounting ----------------------------------------------
    ("phases/holds", phase_accounting("warm", None, {"a": 0.25, "b": 0.5}, 0.75), []),
    ("phases/open", phase_accounting("warm", "b", {"a": 0.25, "b": 0.5}, 0.75),
     ["phase_accounting"]),
    ("phases/negative", phase_accounting("warm", None, {"a": 1.0, "b": -0.25}, 0.75),
     ["phase_accounting"]),
    ("phases/sum", phase_accounting("warm", None, {"a": 0.25}, 0.75), ["phase_accounting"]),
    ("phases/sum-within-float-noise",
     phase_accounting("warm", None, {"a": 0.25}, 0.25 + 1e-9), []),
    # -- selected broker alive -----------------------------------------
    ("alive/holds", selected_alive("final", "b0", True, True, False), []),
    ("alive/dead", selected_alive("final", "b0", False, True, False), ["selected_alive"]),
    ("alive/unreachable", selected_alive("final", "b0", True, False, False),
     ["selected_alive"]),
    ("alive/disruption-excused", selected_alive("windowed", "b0", False, False, True), []),
    # -- reconnect through the cached target set -----------------------
    ("reconnect/holds", reconnect("b0", "cached", "b1"), []),
    ("reconnect/via-bdn", reconnect("b0", "bdn", "b1"), ["reconnect"]),
    ("reconnect/failed", reconnect("b0", "cached", None), ["reconnect"]),
    ("reconnect/killed-again", reconnect("b0", "cached", "b0"), ["reconnect"]),
    # -- replica convergence -------------------------------------------
    ("convergence/holds",
     convergence({"d0": frozenset({("b0", 1.0)}), "d1": frozenset({("b0", 1.0)})}), []),
    ("convergence/older-renewal",
     convergence({"d0": frozenset({("b0", 1.0)}), "d1": frozenset({("b0", 2.0)})}),
     ["convergence", "convergence"]),
    # -- circuit breakers after recovery --------------------------------
    ("breaker/closed", breaker_recovered("d0.host:7000", "closed", True), []),
    ("breaker/probe-eligible", breaker_recovered("d0.host:7000", "open", True), []),
    ("breaker/wedged", breaker_recovered("d0.host:7000", "open", False),
     ["breaker_recovered"]),
]


@pytest.mark.parametrize("breaches,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_predicate(breaches, expected):
    assert [b.invariant for b in breaches] == expected
    assert all(isinstance(b, Breach) for b in breaches)


def test_drain_abort_is_not_a_failure_in_either_helper():
    rounds = [rnd(0), rnd(1, success=False), rnd(2, success=False, aborted=True)]
    assert [r["round"] for r in recorded(rounds)] == [0, 1]
    assert [r["round"] for r in failed(rounds)] == [1]


def test_breach_names_its_subject_and_formats_one_way():
    (breach,) = queue_bounds("bdn:0#1", None)
    assert breach == Breach("no_evidence", "bdn:0#1", "no ingress-queue evidence")
    assert str(breach) == "no_evidence (bdn:0#1): no ingress-queue evidence"
    (failure,) = failed_discoveries([rnd(3, success=False)])
    assert str(failure) == "zero_failed_discoveries (c0): round 3 (u3) failed via 'bdn'"


def test_chaos_checks_name_their_subject():
    assert reconnect("b2", "bdn", "b2") == [
        Breach("reconnect", "b2", "via='bdn', expected 'cached'"),
        Breach("reconnect", "b2", "re-selected the killed broker"),
    ]
    assert selected_alive("final", "b1", False, True, False) == [
        Breach("selected_alive", "final", "selected broker b1 is dead/reachable")
    ]
    (missing,) = convergence({"d0": frozenset({("b0", 1.0)}), "d1": frozenset()})
    assert str(missing) == "convergence (d1): missing [('b0', 1.0)] after heal"


class TestVerdict:
    BOUNDS = dict(election_eps=SIM_ELECTION_EPS, watermark=8, p99_bound=3.0)

    def test_whole_evidence_no_breach(self):
        evidence = Evidence(
            rounds=[rnd(0)],
            intervals=[D0],
            queues={"d0": queue(max_depth=5)},
            stale_targets={"d0": 0},
            p99=0.2,
        )
        assert verdict(evidence, **self.BOUNDS) == []

    def test_everything_absent_is_everything_said(self):
        breaches = verdict(Evidence(queues={"d0": None}), **self.BOUNDS)
        assert [(b.invariant, b.subject) for b in breaches] == [
            ("no_evidence", "load"),  # rounds
            ("no_evidence", "bdn"),  # leadership intervals
            ("no_evidence", "d0"),  # its queue
            ("no_evidence", "load"),  # latencies
        ]

    def test_order_is_fixed(self):
        evidence = Evidence(
            rounds=[rnd(0, success=False)],
            intervals=[D0, ("d1", 2.0, 1.0, 2.0)],
            queues={"d0": queue(overflows=1), "d1": queue()},
            stale_targets={"d0": 0, "d1": 4},
            handler_errors={"load#0": 3, "bdn:0#0": 0},
            p99=9.0,
        )
        assert [b.invariant for b in verdict(evidence, **self.BOUNDS)] == [
            "zero_failed_discoveries",
            "election_safety",
            "queue_overflow",
            "stale_targets",
            "handler_errors",
            "p99_bound",
        ]

    def test_caught_handler_errors_break_the_verdict(self):
        evidence = Evidence(
            rounds=[rnd(0)],
            intervals=[D0],
            queues={"d0": queue()},
            handler_errors={"broker:1#0": 2},
            p99=0.2,
        )
        assert verdict(evidence, **self.BOUNDS) == [
            Breach("handler_errors", "broker:1#0", "2 handler error(s) caught by the runtime")
        ]


class TestBdnEvidence:
    def bdn(self, name, ingress=None, replication=None, stale=0):
        return SimpleNamespace(
            name=name, ingress=ingress, replication=replication, stale_targets=stale
        )

    def test_unreplicated_queueless_bdn_testifies_to_neither(self):
        evidence = bdn_evidence([self.bdn("d0", stale=2)])
        assert evidence.intervals is None
        assert evidence.queues == {"d0": None}
        assert evidence.stale_targets == {"d0": 2}
        assert evidence.rounds is None and evidence.p99 is None

    def test_reads_queue_and_leadership(self):
        ingress = SimpleNamespace(
            config=SimpleNamespace(queue_capacity=32), max_depth=7, depth=1, overflows=0
        )
        replication = SimpleNamespace(leadership_intervals=[[1, 0.0, 2.0]])
        evidence = bdn_evidence(
            [self.bdn("d0", ingress, replication), self.bdn("d1", ingress, replication)]
        )
        assert evidence.queues["d1"] == QueueStats(32, 7, 1, 0)
        assert evidence.intervals == [("d0", 1, 0.0, 2.0), ("d1", 1, 0.0, 2.0)]
