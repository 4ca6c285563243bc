"""``python -m repro.experiments cluster_live`` -- render live-plane artifacts.

A cluster run (``python -m repro.cluster smoke|soak|top --summary ...``)
writes one summary JSON whose ``slo`` block is the streaming monitor's
:meth:`~repro.obs.slo.SloMonitor.summary` and whose ``profiles`` block
holds the per-process CPU attribution from the sampling profiler.  This
target renders both as tables -- the quick look at "did the SLO plane
see anything" and "where did the load generator spend its time" without
re-running the cluster.

Exit codes: 0 on a clean render, 1 when the summary exists but carries
no live-plane data (no ``slo`` or ``profiles`` block), 2 when the summary
file itself is missing or unreadable.
"""

from __future__ import annotations

import json

from repro.experiments.report import profile_table, slo_table

__all__ = ["run_cluster_live", "EXIT_NO_SUMMARY", "EXIT_NO_LIVE_DATA"]

#: The summary file is missing/unreadable vs readable-but-telemetry-free.
EXIT_NO_SUMMARY = 2
EXIT_NO_LIVE_DATA = 1


def run_cluster_live(summary_path: str) -> int:
    """Render the SLO trend and CPU attribution of one cluster summary."""
    try:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read cluster summary {summary_path!r}: {exc}")
        print("run `python -m repro.cluster smoke --summary <path>` first")
        return EXIT_NO_SUMMARY

    slo = summary.get("slo")
    profiles = summary.get("profiles") or {}
    if not slo and not profiles:
        print(
            f"{summary_path}: no live-plane data (no `slo` or `profiles` block; "
            "write it with `python -m repro.cluster smoke --summary <path>`)"
        )
        return EXIT_NO_LIVE_DATA

    blocks = []
    if slo:
        blocks.append(slo_table(slo))
    if profiles:
        blocks.append(profile_table(profiles))
    print("\n\n".join(blocks))
    return 0
