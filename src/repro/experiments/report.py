"""ASCII rendering of the paper's tables and figures.

The benchmarks print their reproduced results through these helpers so
that a run of ``pytest benchmarks/ --benchmark-only`` emits, for every
figure, the same rows the paper reports (Metric / Time tables and
percentage breakdowns).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.experiments.stats import SummaryStats

__all__ = [
    "metric_table",
    "percentage_table",
    "comparison_table",
    "runtime_table",
    "cluster_table",
    "slo_table",
    "profile_table",
]


def metric_table(stats: SummaryStats, title: str) -> str:
    """The paper's five-row metric table (Figures 3-7, 12-14)."""
    lines = [title, f"{'Metric':<12} Time (MilliSec)"]
    for label, value in stats.rows():
        lines.append(f"{label:<12} {value:>12.2f}")
    lines.append(f"{'(n)':<12} {stats.count:>12d}")
    return "\n".join(lines)


def percentage_table(percentages: Mapping[str, float], title: str) -> str:
    """Per-phase percentage breakdown (Figures 2, 9, 11)."""
    lines = [title, f"{'Sub-activity':<28} {'% of total':>10}"]
    for name, pct in sorted(percentages.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<28} {pct:>9.1f}%")
    return "\n".join(lines)


def comparison_table(
    rows: Sequence[tuple[str, Mapping[str, float]]],
    columns: Sequence[str],
    title: str,
) -> str:
    """A generic labelled-rows / named-columns table for ablations.

    Parameters
    ----------
    rows:
        (row label, {column -> value}) pairs.  Missing columns render
        as ``-``.
    columns:
        Column order.
    """
    header = f"{'':<24}" + "".join(f"{c:>14}" for c in columns)
    lines = [title, header]
    for label, values in rows:
        cells = []
        for column in columns:
            if column in values:
                cells.append(f"{values[column]:>14.2f}")
            else:
                cells.append(f"{'-':>14}")
        lines.append(f"{label:<24}" + "".join(cells))
    return "\n".join(lines)


def runtime_table(sim: Mapping[str, object], live: Mapping[str, object]) -> str:
    """Sim-predicted vs live-measured discovery latency, phase by phase.

    ``sim`` comes from
    :func:`repro.experiments.runtime_compare.simulate_reference`;
    ``live`` is the artifact JSON the loopback smoke run
    (``examples/live_discovery.py --artifact``) writes.  Both carry a
    ``phases`` mapping (seconds) and a ``total_time``; rows a runtime
    never entered render as ``-``, and the ratio column shows how far
    the live wall-clock measurement sits from the simulator's
    prediction.
    """
    sim_phases: Mapping[str, float] = sim.get("phases", {})  # type: ignore[assignment]
    live_phases: Mapping[str, float] = live.get("phases", {})  # type: ignore[assignment]
    names = list(sim_phases) + [n for n in live_phases if n not in sim_phases]
    rows = [(name, sim_phases.get(name), live_phases.get(name)) for name in names]
    rows.append(("total", sim.get("total_time"), live.get("total_time")))

    header = f"{'Phase':<24}{'Sim (ms)':>12}{'Live (ms)':>12}{'Live/Sim':>10}"
    lines = ["Discovery latency: simulated vs live", header]
    for name, predicted, measured in rows:
        cells = [f"{name:<24}"]
        for value in (predicted, measured):
            numeric = isinstance(value, (int, float))
            cells.append(f"{value * 1e3:>12.2f}" if numeric else f"{'-':>12}")
        both = isinstance(predicted, (int, float)) and isinstance(measured, (int, float))
        if both and predicted > 0:
            cells.append(f"{measured / predicted:>9.2f}x")
        else:
            cells.append(f"{'-':>10}")
        lines.append("".join(cells))
    selected = (sim.get("selected"), live.get("selected"))
    lines.append(f"{'selected broker':<24}{str(selected[0]):>12}{str(selected[1]):>12}")
    return "\n".join(lines)


def cluster_table(sim: Mapping[str, object], cluster: Mapping[str, object]) -> str:
    """Mean per-phase latency, sim chaos world vs multi-process cluster.

    Both mappings come out of :mod:`repro.experiments.cluster_compare`:
    a ``phases`` mapping of mean per-phase seconds, a mean
    ``total_time``, and ``rounds`` / ``failures`` counts.  The ratio
    column is live-over-sim; phases only one side entered render ``-``.
    """
    sim_phases: Mapping[str, float] = sim.get("phases", {})  # type: ignore[assignment]
    live_phases: Mapping[str, float] = cluster.get("phases", {})  # type: ignore[assignment]
    names = list(sim_phases) + [n for n in live_phases if n not in sim_phases]
    rows = [(name, sim_phases.get(name), live_phases.get(name)) for name in names]
    rows.append(("mean total", sim.get("total_time"), cluster.get("total_time")))

    header = f"{'Phase (mean)':<24}{'Sim (ms)':>12}{'Cluster (ms)':>14}{'Cluster/Sim':>13}"
    lines = ["Rolling BDN restart under load: sim vs live cluster", header]
    for name, predicted, measured in rows:
        cells = [f"{name:<24}"]
        cells.append(
            f"{predicted * 1e3:>12.2f}" if isinstance(predicted, (int, float)) else f"{'-':>12}"
        )
        cells.append(
            f"{measured * 1e3:>14.2f}" if isinstance(measured, (int, float)) else f"{'-':>14}"
        )
        both = isinstance(predicted, (int, float)) and isinstance(measured, (int, float))
        if both and predicted > 0:
            cells.append(f"{measured / predicted:>12.2f}x")
        else:
            cells.append(f"{'-':>13}")
        lines.append("".join(cells))
    lines.append(
        f"{'rounds completed':<24}{sim.get('rounds', 0):>12}{cluster.get('rounds', 0):>14}"
    )
    lines.append(
        f"{'failed discoveries':<24}{sim.get('failures', 0):>12}{cluster.get('failures', 0):>14}"
    )
    return "\n".join(lines)


def slo_table(slo: Mapping[str, object]) -> str:
    """The streaming SLO monitor's window-by-window trend, one row each.

    ``slo`` is ``summary["slo"]`` from a cluster run summary (the
    :meth:`repro.obs.live.LiveTelemetry.summary` block): window count,
    budget burn, and a ``trend`` list of per-window rows.
    """
    lines = [
        "Live SLO monitor: per-window trend",
        f"{'Window':>7}{'Span (s)':>10}{'Rounds':>8}{'Fails':>7}"
        f"{'p99 (ms)':>10}{'Burn':>7}  Violations",
    ]
    for row in slo.get("trend", []):  # type: ignore[union-attr]
        p99 = row.get("p99")
        p99_text = f"{p99 * 1e3:.1f}" if isinstance(p99, (int, float)) else "-"
        if row.get("p99_breached"):
            p99_text += "!"
        names = sorted({v["invariant"] for v in row.get("violations", [])})
        lines.append(
            f"{row['window']:>7}{row['end'] - row['start']:>10.1f}"
            f"{row.get('rounds', 0):>8.0f}{row.get('failures', 0):>7.0f}"
            f"{p99_text:>10}{row.get('burn_rate', 0.0):>6.0%}"
            f"  {', '.join(names) if names else '-'}"
        )
    lines.append(
        f"{slo.get('windows_evaluated', 0)} windows of "
        f"{slo.get('window_seconds', 0.0)}s; "
        f"{len(slo.get('violations', []))} violation(s); "  # type: ignore[arg-type]
        f"latency budget burned {slo.get('budget_burned', 0.0):.0%}"
    )
    return "\n".join(lines)


def profile_table(profiles: Mapping[str, Mapping[str, object]]) -> str:
    """Sampled CPU attribution (``summary["profiles"]``), one process per block.

    Each value is a :meth:`repro.obs.profiling.SamplingProfiler.report`
    minus its collapsed stacks: total samples, elapsed seconds, and the
    per-module attribution rows the sampler assembled.
    """
    lines = ["Continuous profiling: CPU attribution per process"]
    for label in sorted(profiles):
        profile = profiles[label]
        elapsed = profile.get("elapsed")
        elapsed_text = (
            f"{elapsed:.1f}s" if isinstance(elapsed, (int, float)) else "?"
        )
        lines.append(
            f"{label}: {profile.get('samples', 0)} samples @ "
            f"{profile.get('rate_hz', 0.0):g} Hz over {elapsed_text}"
        )
        attribution = profile.get("attribution", {})
        for module, row in attribution.items():  # type: ignore[union-attr]
            lines.append(
                f"  {module:<38}{row['samples']:>8}{row['percent']:>8.1f}%"
            )
    if len(lines) == 1:
        lines.append("(no profiled processes; run with --profile-rate > 0)")
    return "\n".join(lines)
