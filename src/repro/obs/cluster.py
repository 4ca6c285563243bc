"""Cross-process telemetry merge: one cluster timeline from N snapshots.

Each cluster worker process owns its own :class:`~repro.obs.Observability`
and sends its metrics and flight rings in its final telemetry frame (its
exit report).  Those snapshots are incommensurable as-is:

* **Clocks.**  ``AioRuntime.now`` is monotonic seconds since *that
  process* first told the time, so event times from different processes
  share no origin.  Every worker therefore reports a ``wall_offset``
  (``time.time() - rt.now`` at frame time); rebasing each part by
  ``wall_offset - min(wall_offsets)`` puts all events on one shared
  axis whose zero is the earliest-born process's origin.  Wall clocks
  on one machine agree to well under a millisecond, which is an order
  of magnitude finer than the protocol timers being observed.
* **Sequence numbers.**  Ring events carry per-process ``seq`` tiebreak
  counters; merging naively would interleave unrelated events with
  equal seqs.  Each part's seqs are offset by ``part_index *
  SEQ_STRIDE`` so intra-process order is exactly preserved and
  inter-process ties fall back to the (rebased) timestamp, which is the
  only honest cross-process ordering anyway.
* **Ring names.**  Node names are cluster-unique by construction, but a
  crashed-and-respawned process reports a second ring for the same
  node; clashes get an ``#<part>`` suffix rather than silently merging
  two incarnations' histories.

The merged snapshot has the same shape as a single-process one, so
:func:`repro.obs.timeline.assemble_from_snapshot` and
:func:`~repro.obs.timeline.complete_request_ids` work on it unchanged --
a request that hopped client -> BDN -> broker across three OS processes
reassembles into one causal timeline keyed by its trace context.
"""

from __future__ import annotations

__all__ = ["SEQ_STRIDE", "merge_process_snapshots"]

#: Seq-space stride between parts.  A single flight ring emits far fewer
#: events than this over any bounded soak, so per-process seq order is
#: preserved without collisions.
SEQ_STRIDE = 10_000_000


def _merge_metric(merged: dict, name: str, entry: dict) -> None:
    existing = merged.get(name)
    if existing is None:
        # Deep-copy the value so mutating the merge never aliases a part.
        value = entry["value"]
        if isinstance(value, dict):
            value = {k: (list(v) if isinstance(v, list) else v) for k, v in value.items()}
        merged[name] = {"kind": entry["kind"], "value": value}
        return
    kind = entry["kind"]
    if existing["kind"] != kind:
        # Same name, different kinds across processes: keep the first,
        # flag the clash instead of fabricating a number.
        existing.setdefault("merge_conflicts", 0)
        existing["merge_conflicts"] += 1
        return
    if kind == "counter":
        # Counters sum across parts, explicitly and always: each process
        # (and each respawned incarnation) counted disjoint events, so
        # the cluster-wide total is the sum.  Last-write-wins here would
        # silently erase every earlier incarnation's work.
        existing["value"] += entry["value"]
    elif kind == "gauge":
        # Gauges are instantaneous; the last part's view wins.  But two
        # parts reporting *different* values for one name usually means
        # a per-process gauge escaped without a per-process label --
        # flag it so the discrepancy is visible in the merged output.
        if existing["value"] != entry["value"]:
            existing["gauge_conflicts"] = existing.get("gauge_conflicts", 0) + 1
        existing["value"] = entry["value"]
    elif kind == "histogram":
        ours, theirs = existing["value"], entry["value"]
        if ours["bounds"] != theirs["bounds"]:
            existing.setdefault("merge_conflicts", 0)
            existing["merge_conflicts"] += 1
            return
        # Cumulative bucket counts add linearly, so summing the
        # cumulative vectors *is* the merged cumulative vector.
        ours["buckets"] = [a + b for a, b in zip(ours["buckets"], theirs["buckets"])]
        ours["count"] += theirs["count"]
        ours["sum"] += theirs["sum"]


def merge_process_snapshots(parts: list[dict]) -> dict:
    """Merge per-process telemetry snapshots into one cluster snapshot.

    ``parts`` rows are ``{"label": str, "wall_offset": float,
    "snapshot": <dict with "metrics" and optional "rings">}`` -- a
    :func:`~repro.obs.export.telemetry_snapshot` or a worker's final
    frame.  Every ring event carries its emission ``seq``.  Returns a
    snapshot of the same shape plus a ``"parts"`` manifest recording the
    rebasing applied to each contribution.  Parts with a missing/empty
    snapshot are skipped but still listed in the manifest with
    ``"merged": false``.
    """
    live = [p for p in parts if p.get("snapshot")]
    base = min((p["wall_offset"] for p in live), default=0.0)
    metrics: dict = {}
    rings: dict = {}
    manifest = []
    for index, part in enumerate(parts):
        snapshot = part.get("snapshot")
        shift = part["wall_offset"] - base if snapshot else None
        manifest.append(
            {
                "label": part.get("label", f"part{index}"),
                "merged": bool(snapshot),
                "time_shift": shift,
                "seq_offset": index * SEQ_STRIDE,
            }
        )
        if not snapshot:
            continue
        for name, entry in snapshot.get("metrics", {}).items():
            _merge_metric(metrics, name, entry)
        for node, ring in snapshot.get("rings", {}).items():
            key = node if node not in rings else f"{node}#{index}"
            events = []
            for event in ring.get("events", ()):
                shifted = dict(event)
                shifted["time"] = event["time"] + shift
                shifted["seq"] = event["seq"] + index * SEQ_STRIDE
                events.append(shifted)
            rings[key] = {
                "capacity": ring.get("capacity", 0),
                "dropped": ring.get("dropped", 0),
                "emitted": ring.get("emitted", 0),
                "events": events,
            }
    return {
        "version": 1,
        "metrics": dict(sorted(metrics.items())),
        "rings": rings,
        "parts": manifest,
    }
