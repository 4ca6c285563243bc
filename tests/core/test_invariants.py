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
    election_safety,
    failed,
    failed_discoveries,
    latency_bound,
    queue_bounds,
    recorded,
    stale_targets,
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
            p99=9.0,
        )
        assert [b.invariant for b in verdict(evidence, **self.BOUNDS)] == [
            "zero_failed_discoveries",
            "election_safety",
            "queue_overflow",
            "stale_targets",
            "p99_bound",
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
