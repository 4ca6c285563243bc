"""Soak invariants: every verdict decided here, once.

Pure functions over plain evidence.  The sim chaos harness
(:mod:`repro.discovery.chaos`), the cluster exit report
(:mod:`repro.cluster.report`), the live monitor (:mod:`repro.obs.slo`)
and the sim-vs-cluster comparison gather evidence and carry the
:class:`Breach` list until they print it or write it out (as
``str(breach)``); none of them compares a number to a bound or words a
verdict of its own.

A harness holds a run to the predicates it calls.  Evidence a called
predicate needs and does not get (``None``) is a ``no_evidence`` breach,
never a pass: a queue that was not there did not stay within bounds.
:func:`verdict` is the whole check list over one :class:`Evidence`
record, for runs that are held to all of it.  A cluster worker writes
its queue into its record with :func:`queue_record`; the exit verdict
and the live monitor read it back with :func:`queue_stats`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "SIM_ELECTION_EPS",
    "LIVE_ELECTION_EPS",
    "Interval",
    "Breach",
    "QueueStats",
    "queue_record",
    "queue_stats",
    "Evidence",
    "bdn_evidence",
    "recorded",
    "failed",
    "zero_failed",
    "failed_discoveries",
    "election_safety",
    "queue_bounds",
    "stale_targets",
    "latency_bound",
    "latency_budget",
    "handler_errors",
    "terminates",
    "phase_accounting",
    "selected_alive",
    "reconnect",
    "convergence",
    "breaker_recovered",
    "verdict",
]

#: Tolerated leadership overlap, seconds.  A virtual clock is exact, so
#: anything beyond float noise is split brain; wall clocks on one host
#: agree to well under a millisecond, and 50 ms absorbs report skew
#: while staying two orders of magnitude below the 2 s leases.
SIM_ELECTION_EPS = 1e-9
LIVE_ELECTION_EPS = 0.05

#: Tolerated gap between an outcome's phase sum and its total time,
#: seconds: pure float accumulation error.
_PHASE_EPS = 1e-6

#: ``(member, term, start, until)`` on one time axis.
Interval = tuple[str, float, float, float]


class Breach(NamedTuple):
    """One broken invariant: which, on whom, and what was seen."""

    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant} ({self.subject}): {self.detail}"


class QueueStats(NamedTuple):
    """One BDN ingress queue as a harness read it."""

    capacity: int
    max_depth: int
    depth: int
    overflows: int


def queue_record(queue: QueueStats | None) -> dict[str, int]:
    """A queue as flat record keys, ``queue_<field>``; none for no queue."""
    return {} if queue is None else {f"queue_{k}": v for k, v in queue._asdict().items()}


def queue_stats(record: Mapping) -> QueueStats | None:
    """The queue a record's keys describe; ``None`` when a key is absent."""
    try:
        return QueueStats(*(record[f"queue_{k}"] for k in QueueStats._fields))
    except KeyError:
        return None


@dataclass(frozen=True)
class Evidence:
    """What one harness observed of one run, normalised.

    ``rounds`` are mappings with ``success`` and ``aborted`` (plus
    ``client``/``round``/``uuid``/``via`` for the breach text);
    ``queues`` and ``stale_targets`` are keyed by BDN; ``handler_errors``
    is keyed by process, each the count of handler failures its runtime
    caught; ``p99`` is the client-observed latency the adapter computed.
    ``None`` -- for a field or for one BDN's queue -- means the harness
    could not see it.
    """

    rounds: Sequence[Mapping] | None = None
    intervals: Sequence[Interval] | None = None
    queues: Mapping[str, QueueStats | None] = field(default_factory=dict)
    stale_targets: Mapping[str, int] = field(default_factory=dict)
    handler_errors: Mapping[str, int] = field(default_factory=dict)
    p99: float | None = None


def bdn_evidence(bdns) -> Evidence:
    """What these BDNs can testify to; the caller adds rounds and p99.

    Duck-typed over live nodes, on either runtime.  Intervals are
    ``None`` when no BDN is replicated, a queue is ``None`` when its BDN
    has no service model.
    """
    replicas = [bdn for bdn in bdns if bdn.replication is not None]
    return Evidence(
        intervals=[
            (bdn.name, *row) for bdn in replicas for row in bdn.replication.leadership_intervals
        ] if replicas else None,
        queues={
            bdn.name: None if bdn.ingress is None else QueueStats(
                bdn.ingress.config.queue_capacity,
                bdn.ingress.max_depth,
                bdn.ingress.depth,
                bdn.ingress.overflows,
            )
            for bdn in bdns
        },
        stale_targets={bdn.name: bdn.stale_targets for bdn in bdns},
    )


def _no_evidence(subject: str, what: str) -> list[Breach]:
    return [Breach("no_evidence", subject, f"no {what}")]


def recorded(rounds: Sequence[Mapping]) -> list[Mapping]:
    """The rounds that count: a drain abort is not a failure.

    A round the requester gave up on because its process was draining
    is the schedule being cut short, not the cluster under test failing
    -- the same reason the sim does not count runs it never drove.
    """
    return [r for r in rounds if not r.get("aborted")]


def failed(rounds: Sequence[Mapping]) -> list[Mapping]:
    return [r for r in recorded(rounds) if not r["success"]]


def zero_failed(subject: str, failures: int, detail: str = "") -> list[Breach]:
    """``failures`` counts recorded rounds only (see :func:`recorded`)."""
    if not failures:
        return []
    detail = detail or f"{failures} discovery round(s) failed"
    return [Breach("zero_failed_discoveries", subject, detail)]


def failed_discoveries(rounds: Sequence[Mapping] | None) -> list[Breach]:
    """Every recorded round selected a broker -- and there were some."""
    if not recorded(rounds or ()):
        return _no_evidence("load", "recorded discovery rounds")
    return [
        breach
        for r in failed(rounds)
        for breach in zero_failed(
            r["client"], 1, f"round {r['round']} ({r['uuid']}) failed via {r['via']!r}"
        )
    ]


def election_safety(intervals: Sequence[Interval] | None, eps: float) -> list[Breach]:
    """No two members ever believed themselves leader at once.

    Each member logs ``[term, start, until]`` with ``until`` its own
    conservative lease belief, so an overlap between two members' rows
    is direct evidence of split brain.  Two rows of different members
    overlap when each starts more than ``eps`` before the other ends.
    """
    if intervals is None:
        return _no_evidence("bdn", "leadership intervals")
    return [
        Breach(
            "election_safety",
            "bdn",
            f"{a[0]} led term {a[1]:g} over [{a[2]:.3f}, {a[3]:.3f}) "
            f"overlapping {b[0]} term {b[1]:g} over [{b[2]:.3f}, {b[3]:.3f})",
        )
        for i, a in enumerate(intervals)
        for b in intervals[i + 1 :]
        if a[0] != b[0] and a[2] < b[3] - eps and b[2] < a[3] - eps
    ]


def queue_bounds(
    subject: str, queue: QueueStats | None, watermark: int | None = None
) -> list[Breach]:
    """Depth never above capacity, nothing ever dropped at a full queue
    (admission control sheds long before that), and -- at rest, when the
    caller has an at-rest reading to offer -- drained to the admission
    ``watermark``.  ``watermark=None`` is a run still in flight.
    """
    if queue is None:
        return _no_evidence(subject, "ingress-queue evidence")
    checks = (
        (
            "queue_capacity",
            queue.max_depth > queue.capacity,
            f"ingress queue peaked at {queue.max_depth} > capacity {queue.capacity}",
        ),
        (
            "queue_overflow",
            queue.overflows > 0,
            f"{queue.overflows} ingress overflow(s); "
            "admission control should shed before the queue fills",
        ),
        (
            "queue_watermark",
            watermark is not None and queue.depth > watermark,
            f"ingress queue still {queue.depth} deep at rest (watermark {watermark})",
        ),
    )
    return [Breach(name, subject, detail) for name, broken, detail in checks if broken]


def stale_targets(subject: str, count: int) -> list[Breach]:
    if count <= 0:
        return []
    detail = f"{count} expired advertisement(s) chosen as dissemination targets"
    return [Breach("stale_targets", subject, detail)]


def latency_bound(p99: float | None, bound: float) -> list[Breach]:
    if p99 is None:
        return _no_evidence("load", "client-observed latencies")
    if p99 <= bound:
        return []
    return [Breach("p99_bound", "load", f"client-observed p99 {p99:.3f}s > bound {bound:.1f}s")]


def latency_budget(
    p99: float | None, bound: float, breached: int, windows: int, budget: float
) -> list[Breach]:
    """The rolling p99 is budgeted, not hard: a window over ``bound``
    burns budget, and only a breaching window whose count of breached
    windows (``breached`` of ``windows``, this one included) exceeds the
    ``budget`` fraction plus one window of grace exhausts it.  A window
    with no latencies (``p99=None``) burns nothing.
    """
    if p99 is None or not latency_bound(p99, bound) or breached <= budget * windows + 1:
        return []
    detail = (
        f"rolling p99 {p99:.3f}s > {bound:.1f}s in {breached}/{windows} windows; "
        f"error budget ({budget:.0%} of windows) exhausted"
    )
    return [Breach("latency_budget", "load", detail)]


def handler_errors(subject: str, count: int) -> list[Breach]:
    """No handler failure was caught and carried past: a runtime that
    keeps its loop alive through a raising handler still owes the run
    its verdict."""
    if count <= 0:
        return []
    return [Breach("handler_errors", subject, f"{count} handler error(s) caught by the runtime")]


def terminates(subject: str, raised: str | None, terminated: bool) -> list[Breach]:
    """A discovery ends in an outcome: it neither raised (``raised`` is
    the error's text) nor ran past the driver's cap."""
    if raised is not None:
        return [Breach("terminates", subject, f"discovery raised instead of completing: {raised}")]
    if not terminated:
        return [Breach("terminates", subject, "discovery did not terminate")]
    return []


def phase_accounting(
    subject: str, open_phase: str | None, phases: Mapping[str, float], total_time: float
) -> list[Breach]:
    """An outcome's phase timer is closed, no phase ran backwards, and
    the phases add up to the run's total time (to float noise)."""
    found = []
    if open_phase is not None:
        found.append(Breach("phase_accounting", subject, f"phase {open_phase!r} left open"))
    found += [
        Breach("phase_accounting", subject, f"phase {name!r} has negative duration {value}")
        for name, value in phases.items()
        if value < 0
    ]
    total = sum(phases.values())
    if abs(total - total_time) > _PHASE_EPS:
        found.append(
            Breach("phase_accounting", subject, f"phase sum {total} != total_time {total_time}")
        )
    return found


def selected_alive(
    subject: str, broker: str, alive: bool, reachable: bool, disrupted: bool
) -> list[Breach]:
    """A successful run selected a broker that is alive and reachable
    from its client.  ``disrupted`` is the stale-information excuse: a
    kill or cut that landed during the run can invalidate ping evidence
    already gathered, which the protocol cannot know.  The caller grants
    it only to a run that overlapped a disruption's onset, never to a
    strict post-heal run.
    """
    if (alive and reachable) or disrupted:
        return []
    state = f"{'alive' if alive else 'dead'}/{'reachable' if reachable else 'unreachable'}"
    return [Breach("selected_alive", subject, f"selected broker {broker} is {state}")]


def reconnect(killed: str, via: str, selected: str | None) -> list[Breach]:
    """After the ``killed`` broker (the one last chosen) dies, the
    client reconnects through its cached target set -- no BDN round
    trip -- onto another broker.  ``selected`` is ``None`` when the
    rediscovery failed."""
    found = []
    if via != "cached":
        found.append(Breach("reconnect", killed, f"via={via!r}, expected 'cached'"))
    if selected is None:
        found.append(Breach("reconnect", killed, "cached-target rediscovery failed"))
    elif selected == killed:
        found.append(Breach("reconnect", killed, "re-selected the killed broker"))
    return found


def convergence(registries: Mapping[str, frozenset]) -> list[Breach]:
    """After every fault healed, anti-entropy has driven each member's
    registry to the same renewal of every live registration: each
    member holds every ``(broker_id, issued_at)`` any member holds."""
    union = frozenset().union(*registries.values())
    return [
        Breach("convergence", member, f"missing {sorted(union - held)} after heal")
        for member, held in registries.items()
        if union - held
    ]


def breaker_recovered(subject: str, state: str, available: bool) -> list[Breach]:
    """After the last storm, a client's circuit breaker is not wedged:
    it is closed again or eligible to probe (``available``; an open
    breaker past its cooldown re-closes on its next success)."""
    if available:
        return []
    return [Breach("breaker_recovered", subject, f"wedged {state} after recovery")]


def verdict(
    evidence: Evidence, *, election_eps: float, watermark: int, p99_bound: float
) -> list[Breach]:
    """The whole soak check list, in one fixed order."""
    found = failed_discoveries(evidence.rounds)
    found += election_safety(evidence.intervals, election_eps)
    for subject, queue in evidence.queues.items():
        found += queue_bounds(subject, queue, watermark)
    for subject, count in evidence.stale_targets.items():
        found += stale_targets(subject, count)
    for subject, count in evidence.handler_errors.items():
        found += handler_errors(subject, count)
    found += latency_bound(evidence.p99, p99_bound)
    return found
