"""Live SLO monitoring: continuous soak invariants with burn-rate budgets.

PR 8 checked the soak invariants **once**, on the collected exit
reports.  The :class:`SloMonitor` evaluates the same predicates
(:mod:`repro.core.invariants`; docs/PROTOCOL.md "Soak invariants")
continuously against the :class:`~repro.obs.live.RollingClusterView`,
in fixed wall-clock windows, so a violation surfaces within one window
of its occurrence:

* **Hard invariants** fire in the window that saw them -- a failed
  discovery, a BDN's queue bounds or a stale dissemination target read
  from its frames (a BDN whose frames carry no queue stats is a
  ``no_evidence`` violation, not a healthy zero), and any overlap
  between leadership intervals on the rebased wall-clock axis.
* **The latency SLO** is budgeted, not hard: a single window whose
  rolling p99 (from the sliding-window histogram deltas) breaches the
  bound *burns error budget* rather than failing the run -- storms and
  rolling restarts are supposed to hurt briefly.  The budget is a
  fraction of evaluated windows; when the burn exceeds it (plus one
  window of grace so short runs aren't judged on one sample) the
  monitor raises a budget-exhausted violation, and the per-window burn
  rate is recorded in the trend either way.

Violations are structured (:class:`SloViolation` names the window, the
process, and the invariant) so the coordinator can fail fast with an
actionable report instead of a post-mortem grep.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.core.invariants import (
    LIVE_ELECTION_EPS,
    QueueStats,
    election_safety,
    latency_bound,
    queue_bounds,
    stale_targets,
    zero_failed,
)
from repro.obs.live import quantile_from_buckets

__all__ = ["SloConfig", "SloViolation", "SloMonitor"]

#: Invariants judged on evidence that accumulates over the run (the
#: full interval history, a lifetime peak, a key that never appeared):
#: the same breach is reported once, not again every window.
_CUMULATIVE = frozenset({"election_safety", "queue_capacity", "no_evidence"})


@dataclass
class SloConfig:
    """What the monitor holds the cluster to, per evaluation window."""

    #: Evaluation window length, wall-clock seconds.
    window: float = 5.0
    #: Ingress queue hard bound (the spec's ``queue_capacity``).
    queue_capacity: int = 32
    #: Rolling p99 bound for client-observed discovery time, seconds.
    p99_bound: float = 3.0
    #: Fraction of windows allowed to breach the p99 bound before the
    #: error budget is exhausted.
    latency_budget: float = 0.25

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if not 0.0 <= self.latency_budget <= 1.0:
            raise ValueError(
                f"latency_budget is a fraction, got {self.latency_budget}"
            )


@dataclass
class SloViolation:
    """One structured invariant breach: which window, who, what."""

    window: int
    start: float
    end: float
    invariant: str
    process: str
    detail: str
    detected_at: float = 0.0

    def describe(self) -> str:
        return (
            f"[window {self.window} @ {self.start:.1f}..{self.end:.1f}] "
            f"{self.invariant} ({self.process}): {self.detail}"
        )

    def to_dict(self) -> dict:
        return asdict(self)


class SloMonitor:
    """Continuous window-by-window evaluation of the soak invariants."""

    def __init__(self, config: SloConfig | None = None, clock=time.time) -> None:
        self.config = config or SloConfig()
        self._clock = clock
        self.started_at: float | None = None
        self.windows_evaluated = 0
        self.violations: list[SloViolation] = []
        #: Per-window trend rows (JSON-serialisable), oldest first.
        self.trend: list[dict] = []
        self.breached_windows = 0
        self._reported: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, now: float | None = None) -> None:
        if self.started_at is None:
            self.started_at = self._clock() if now is None else now

    @property
    def budget_burned(self) -> float:
        """Fraction of the latency error budget consumed so far."""
        if not self.windows_evaluated or self.config.latency_budget <= 0:
            return 1.0 if self.breached_windows else 0.0
        allowed = self.config.latency_budget * self.windows_evaluated
        return self.breached_windows / allowed if allowed else 0.0

    # ------------------------------------------------------------------
    # Window machinery
    # ------------------------------------------------------------------
    def maybe_evaluate(self, view, now: float | None = None) -> list[SloViolation]:
        """Close every window whose end has passed; returns new violations."""
        if self.started_at is None:
            return []
        now = self._clock() if now is None else now
        fresh: list[SloViolation] = []
        window = self.config.window
        while self.started_at + (self.windows_evaluated + 1) * window <= now:
            index = self.windows_evaluated
            start = self.started_at + index * window
            rows = view.close_window(window)
            fresh.extend(
                self._evaluate(index, start, start + window, rows, view, now)
            )
        return fresh

    def flush(self, view, now: float | None = None) -> list[SloViolation]:
        """Close the open partial window (run teardown).

        Guarantees at least one evaluated window per run, however short:
        the CI smoke asserts ``windows_evaluated >= 1`` on this.
        """
        if self.started_at is None:
            return []
        now = self._clock() if now is None else now
        fresh = self.maybe_evaluate(view, now)
        index = self.windows_evaluated
        start = self.started_at + index * self.config.window
        if now <= start and self.windows_evaluated:
            return fresh
        duration = max(now - start, 1e-9)
        rows = view.close_window(duration)
        fresh.extend(self._evaluate(index, start, now, rows, view, now))
        return fresh

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _evaluate(
        self, index: int, start: float, end: float, rows: list[dict], view, now: float
    ) -> list[SloViolation]:
        config = self.config
        breaches = []
        rounds = failures = 0
        window_hist: dict | None = None
        for row in rows:
            label = row["label"]
            counters = row["counters"]
            stats = row.get("stats") or {}
            if "failures" in stats:
                # The load worker's stats count only *recorded* rounds.
                # A run the requester gives up on mid-drain increments
                # the discovery.failed metric (the requester cannot know
                # the process is draining), but a drain abort is not a
                # failure (core.invariants.recorded) -- the monitor must
                # agree with the exit report or every clean run ends on
                # a spurious violation in its final flushed window.
                row_rounds = stats.get("rounds", 0)
                failed = stats["failures"]
            else:
                row_rounds = counters.get("discovery.completed", 0) + counters.get(
                    "discovery.failed", 0
                )
                failed = counters.get("discovery.failed", 0)
            rounds += row_rounds
            failures += failed
            breaches += zero_failed(
                label, failed, f"{failed} discovery round(s) failed in this window"
            )
            if row["role"].partition(":")[0] == "bdn":
                # Peak and depth are gauges; overflows and stale targets
                # are this window's increments, so each fires in the
                # window where it happened.
                gauges = row["gauges"]
                queue = None
                if "queue_max_depth" in gauges:
                    queue = QueueStats(
                        config.queue_capacity,
                        gauges["queue_max_depth"],
                        gauges.get("queue_depth", 0),
                        stats.get("queue_overflows", 0),
                    )
                breaches += queue_bounds(label, queue)
                breaches += stale_targets(label, stats.get("stale_targets", 0))
            hist = row["histograms"].get("discovery.total_time")
            if hist:
                if window_hist is None:
                    window_hist = {
                        "bounds": list(hist["bounds"]),
                        "buckets": list(hist["buckets"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                    }
                elif window_hist["bounds"] == hist["bounds"]:
                    window_hist["buckets"] = [
                        a + b for a, b in zip(window_hist["buckets"], hist["buckets"])
                    ]
                    window_hist["count"] += hist["count"]
                    window_hist["sum"] += hist["sum"]
        breaches += election_safety(view.leadership_intervals(), LIVE_ELECTION_EPS)
        breaches = [b for b in breaches if b not in self._reported]
        self._reported.update(b for b in breaches if b.invariant in _CUMULATIVE)
        found = [
            SloViolation(index, start, end, b.invariant, b.subject, b.detail, now)
            for b in breaches
        ]

        # Rolling p99 burns budget instead of failing outright.
        p99 = None
        breached = False
        if window_hist and window_hist["count"]:
            cumulative, running = [], 0
            for n in window_hist["buckets"]:
                running += n
                cumulative.append(running)
            p99 = quantile_from_buckets(
                window_hist["bounds"], cumulative, window_hist["count"], 0.99
            )
            breached = bool(latency_bound(p99, config.p99_bound))
        self.windows_evaluated += 1
        if breached:
            self.breached_windows += 1
            allowed = config.latency_budget * self.windows_evaluated
            if self.breached_windows > allowed + 1:
                found.append(
                    SloViolation(
                        index, start, end, "latency_budget", "load",
                        f"rolling p99 {p99:.3f}s > {config.p99_bound:.1f}s in "
                        f"{self.breached_windows}/{self.windows_evaluated} windows; "
                        f"error budget ({config.latency_budget:.0%} of windows) exhausted",
                        now,
                    )
                )
        self.trend.append(
            {
                "window": index,
                "start": start,
                "end": end,
                "rounds": rounds,
                "failures": failures,
                "p99": p99,
                "p99_breached": breached,
                "burn_rate": self.budget_burned,
                "violations": [v.to_dict() for v in found],
            }
        )
        self.violations.extend(found)
        return found

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "windows_evaluated": self.windows_evaluated,
            "window_seconds": self.config.window,
            "violations": [v.to_dict() for v in self.violations],
            "breached_windows": self.breached_windows,
            "budget_burned": self.budget_burned,
            "trend": list(self.trend),
        }
