"""Streaming telemetry plane: snapshot frames, rolling cluster view, live top.

PR 8's cluster harness only ever saw telemetry *post mortem*: each
worker froze one :func:`~repro.obs.export.telemetry_snapshot` into its
exit report, so a soak that violated its invariants at minute 1 burned
the remaining minutes before anyone noticed.  This module turns that
exit artifact into a plane:

* **Worker side** -- every telemetry interval a worker sends its whole
  ``registry.snapshot()`` up the JSON-lines control channel.  Values
  are absolute, so a frame replaces what the coordinator held for that
  process and nothing flows back.
* **Coordinator side** -- a :class:`RollingClusterView` folds frames per
  process and closes fixed wall-clock windows, producing per-window
  counter rates and histogram deltas (rolling p50/p99 without keeping
  raw samples).  :class:`LiveTelemetry` owns the view and drives its
  :class:`~repro.obs.slo.SloMonitor` from a wall-clock ticker thread so
  violations surface within one evaluation window of occurrence -- not
  at collect time.
* **Terminal dashboard** -- :func:`render_top` renders the view as the
  per-role table behind ``python -m repro.cluster top``.

Nothing here touches the sim path: frames exist only on the cluster's
control channel, and the golden sim digests are unaffected.
"""

from __future__ import annotations

import threading

from repro.obs.cluster import merge_process_snapshots

__all__ = [
    "histogram_delta",
    "quantile_from_buckets",
    "ProcessView",
    "RollingClusterView",
    "LiveTelemetry",
    "render_top",
]


def histogram_delta(current: dict | None, base: dict | None) -> dict | None:
    """Per-window histogram increments between two cumulative readings.

    ``current``/``base`` are ``Histogram.read()`` dicts (cumulative
    ``le`` buckets).  Returns the same shape holding only the window's
    observations, or ``None`` when there is nothing to diff.  A count
    that *decreased* (worker restarted, histogram reset) yields the
    current reading unchanged: the new incarnation's whole history is
    the window's contribution.
    """
    if current is None:
        return None
    if base is None or base["bounds"] != current["bounds"] or base["count"] > current["count"]:
        return dict(current)
    return {
        "bounds": list(current["bounds"]),
        "buckets": [a - b for a, b in zip(current["buckets"], base["buckets"])],
        "count": current["count"] - base["count"],
        "sum": current["sum"] - base["sum"],
    }


def quantile_from_buckets(
    bounds: list[float], cumulative: list[int], count: int, q: float
) -> float:
    """Upper-bound quantile estimate from a cumulative ``le`` histogram.

    Returns the smallest bucket bound whose cumulative count covers the
    ``q``-quantile, or the last bound when the quantile lands in the
    ``+Inf`` overflow bucket -- a conservative (never underestimating
    within bucket resolution) read, the standard trade of fixed-bucket
    histograms.
    """
    if count <= 0:
        return 0.0
    rank = max(1, int(-(-q * count // 1)))  # ceil without math import
    for bound, covered in zip(bounds, cumulative):
        if covered >= rank:
            return float(bound)
    return float(bounds[-1]) if bounds else 0.0


class ProcessView:
    """The rolling view of one worker process's telemetry stream."""

    __slots__ = (
        "label", "role", "incarnation", "wall_offset", "metrics", "stats",
        "intervals", "frames", "_window_metrics", "_window_stats",
    )

    def __init__(self, label: str, role: str, incarnation: int) -> None:
        self.label = label
        self.role = role
        self.incarnation = incarnation
        self.wall_offset = 0.0
        #: The latest frame's whole ``registry.snapshot()``.
        self.metrics: dict = {}
        #: Latest flat role stats (queue depth, rounds, breaker states...).
        self.stats: dict = {}
        #: Latest full leadership-interval list (BDN roles only).
        self.intervals: list = []
        self.frames = 0
        # Window baselines, reset at every close_window().
        self._window_metrics: dict = {}
        self._window_stats: dict = {}

    def fold(self, frame: dict) -> None:
        self.metrics = frame.get("metrics") or {}
        self.stats.update(frame.get("stats") or {})
        if frame.get("intervals") is not None:
            self.intervals = frame["intervals"]
        if "wall_offset" in frame:
            self.wall_offset = float(frame["wall_offset"])
        self.frames += 1

    def _counter_deltas(self) -> dict[str, float]:
        out = {}
        for name, entry in self.metrics.items():
            if entry.get("kind") != "counter":
                continue
            base = self._window_metrics.get(name)
            previous = base["value"] if base else 0
            delta = entry["value"] - previous
            if delta < 0:  # restarted incarnation: its full count is new
                delta = entry["value"]
            out[name] = delta
        return out

    def _stat_deltas(self) -> dict[str, float]:
        out = {}
        for key, value in self.stats.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            previous = self._window_stats.get(key, 0)
            out[key] = value - previous
        return out

    def _histogram_deltas(self) -> dict[str, dict]:
        out = {}
        for name, entry in self.metrics.items():
            if entry.get("kind") != "histogram":
                continue
            base = self._window_metrics.get(name)
            delta = histogram_delta(entry["value"], base["value"] if base else None)
            if delta is not None and delta["count"] > 0:
                out[name] = delta
        return out

    def close_window(self) -> dict:
        """This window's deltas; resets the window baseline."""
        row = {
            "label": self.label,
            "role": self.role,
            "counters": self._counter_deltas(),
            "stats": self._stat_deltas(),
            "gauges": {
                k: v for k, v in self.stats.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
            "histograms": self._histogram_deltas(),
        }
        self._window_metrics = {
            name: {"kind": e["kind"], "value": (
                dict(e["value"]) if isinstance(e["value"], dict) else e["value"]
            )}
            for name, e in self.metrics.items()
        }
        self._window_stats = {
            k: v for k, v in self.stats.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        return row


class RollingClusterView:
    """Every process's folded telemetry, mergeable into one snapshot."""

    def __init__(self) -> None:
        self.processes: dict[str, ProcessView] = {}
        self.frames_folded = 0
        self.last_window_rows: list[dict] = []
        self.last_window_duration = 0.0

    def fold(self, frame: dict) -> ProcessView:
        """Fold one telemetry frame; returns the process's view."""
        role = str(frame.get("role", "?"))
        incarnation = int(frame.get("incarnation", 0))
        label = f"{role}#{incarnation}"
        view = self.processes.get(label)
        if view is None:
            view = ProcessView(label, role, incarnation)
            self.processes[label] = view
        view.fold(frame)
        self.frames_folded += 1
        return view

    def close_window(self, duration: float) -> list[dict]:
        """Close the current rate window across every process."""
        rows = [view.close_window() for view in self.processes.values()]
        self.last_window_rows = rows
        self.last_window_duration = duration
        return rows

    def leadership_intervals(self) -> list[tuple[str, float, float, float]]:
        """Wall-clock-rebased ``(member, term, start, until)`` rows."""
        merged = []
        for view in self.processes.values():
            name = view.stats.get("name", view.role)
            for term, start, until in view.intervals:
                merged.append(
                    (name, float(term), start + view.wall_offset, until + view.wall_offset)
                )
        return sorted(merged, key=lambda row: row[2])

    def merged_snapshot(self) -> dict:
        """The rolling cluster view as one merged telemetry snapshot.

        Same shape as :func:`repro.obs.cluster.merge_process_snapshots`
        over exit reports -- but built from the *live* stream, so it is
        available while the run is still going.
        """
        parts = [
            {
                "label": view.label,
                "wall_offset": view.wall_offset,
                "snapshot": {"version": 1, "metrics": view.metrics, "rings": {}},
            }
            for view in self.processes.values()
        ]
        return merge_process_snapshots(parts)

    def top_rows(self) -> list[dict]:
        """Per-process dashboard rows from the last closed window."""
        window_by_label = {row["label"]: row for row in self.last_window_rows}
        dt = self.last_window_duration or 1.0
        rows = []
        for label in sorted(self.processes):
            view = self.processes[label]
            window = window_by_label.get(label, {})
            counters = window.get("counters", {})
            stats = window.get("stats", {})
            hist = window.get("histograms", {}).get("discovery.total_time")
            p50 = p99 = None
            if hist:
                p50 = quantile_from_buckets(
                    hist["bounds"], hist["buckets"], hist["count"], 0.50
                )
                p99 = quantile_from_buckets(
                    hist["bounds"], hist["buckets"], hist["count"], 0.99
                )
            rows.append(
                {
                    "label": label,
                    "role": view.role,
                    "frames": view.frames,
                    "rounds_per_s": (
                        counters.get("discovery.completed", 0)
                        + counters.get("discovery.failed", 0)
                    ) / dt,
                    "failures": counters.get("discovery.failed", 0),
                    "shed_per_s": stats.get("requests_shed", 0) / dt,
                    "queue_depth": view.stats.get("queue_depth"),
                    "breakers": view.stats.get("breaker_states"),
                    "p50": p50,
                    "p99": p99,
                }
            )
        return rows


def _fmt(value, unit: str = "", width: int = 8) -> str:
    if value is None:
        text = "-"
    elif isinstance(value, float):
        text = f"{value:.2f}{unit}"
    else:
        text = f"{value}{unit}"
    return f"{text:>{width}}"


def render_top(view: RollingClusterView, monitor) -> str:
    """The ``python -m repro.cluster top`` dashboard, one frame of text."""
    lines = [
        f"{'process':<12}{'frames':>8}{'rounds/s':>10}{'fails':>7}"
        f"{'shed/s':>8}{'queue':>7}{'p50':>9}{'p99':>9}  breakers"
    ]
    for row in view.top_rows():
        breakers = row["breakers"]
        if isinstance(breakers, dict):
            opened = sum(1 for s in breakers.values() if s != "closed")
            breakers = f"{len(breakers) - opened} closed, {opened} open" if breakers else "-"
        lines.append(
            f"{row['label']:<12}{row['frames']:>8}"
            + _fmt(row["rounds_per_s"], width=10)
            + _fmt(row["failures"], width=7)
            + _fmt(row["shed_per_s"], width=8)
            + _fmt(row["queue_depth"], width=7)
            + _fmt(None if row["p50"] is None else row["p50"] * 1000, "ms", 9)
            + _fmt(None if row["p99"] is None else row["p99"] * 1000, "ms", 9)
            + f"  {breakers if breakers is not None else '-'}"
        )
    lines.append(
        f"slo: {monitor.windows_evaluated} windows evaluated, "
        f"{len(monitor.violations)} violation(s), "
        f"latency budget burned {monitor.budget_burned:.0%}"
    )
    for violation in monitor.violations[-3:]:
        lines.append(f"  VIOLATION {violation.describe()}")
    return "\n".join(lines)


class LiveTelemetry:
    """Coordinator-side plane: fold frames and drive the SLO monitor.

    ``on_frame`` is called from control-channel reader threads, the
    ticker from its own thread, and readers like ``render_top`` from the
    harness thread -- one lock serialises them all.  The ticker closes
    SLO windows on the wall clock, so a worker that stops sending frames
    (crash, wedge) cannot stall evaluation.
    """

    def __init__(self, monitor) -> None:
        self.view = RollingClusterView()
        self.monitor = monitor
        self.lock = threading.Lock()
        self._ticker: threading.Thread | None = None
        self._stop = threading.Event()
        self._flushed = False

    # ------------------------------------------------------------------
    # Frame path (reader threads)
    # ------------------------------------------------------------------
    def on_frame(self, frame: dict) -> None:
        """Fold one ``telemetry`` frame."""
        with self.lock:
            self.view.fold(frame)
            self.monitor.maybe_evaluate(self.view)

    # ------------------------------------------------------------------
    # Ticker (wall clock)
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.monitor.start()
        if self._ticker is not None:
            return
        period = max(0.1, min(1.0, self.monitor.config.window / 4.0))

        def tick() -> None:
            while not self._stop.wait(period):
                with self.lock:
                    self.monitor.maybe_evaluate(self.view)

        self._ticker = threading.Thread(target=tick, daemon=True, name="slo-ticker")
        self._ticker.start()

    def stop(self) -> None:
        """Stop the ticker and flush the open partial window (idempotent)."""
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
            self._ticker = None
        with self.lock:
            if not self._flushed:
                self._flushed = True
                self.monitor.flush(self.view)

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    @property
    def violations(self) -> list:
        with self.lock:
            return list(self.monitor.violations)

    @property
    def windows_evaluated(self) -> int:
        with self.lock:
            return self.monitor.windows_evaluated

    def render(self) -> str:
        with self.lock:
            return render_top(self.view, self.monitor)

    def merged_snapshot(self) -> dict:
        with self.lock:
            return self.view.merged_snapshot()

    def summary(self) -> dict:
        """JSON-serialisable plane summary for the run report."""
        with self.lock:
            return {
                "frames_folded": self.view.frames_folded,
                "processes": sorted(self.view.processes),
                **self.monitor.summary(),
            }
