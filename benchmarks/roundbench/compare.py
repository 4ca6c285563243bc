"""``compare A B``: two result sets of the same benchmark, metric by metric.

A *result set* is the JSON ``run`` writes: one record per workload,
seed and pass.  For every end-to-end metric x workload the tool prints
each set's median, the change of B against A signed so that **positive
is worse**, the metric's bound on that workload's runtime, and a
verdict:

``same``
    B's median is not worse than A's by more than the bound.
``worse``
    It is.
``better``
    Every run of B reads better than every run of A (a gain may be
    claimed only under the pairing rule in the README, not from here).
``unresolved``
    A set's own spread (interquartile range over its median) exceeds the
    bound, so a difference within the bound cannot be told from noise.

Exact metrics (virtual-time latencies, counters on simulated workloads)
are also checked for identity when both sets ran the same seeds.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from . import catalog

__all__ = ["load_set", "spread", "compare_sets", "render", "main"]


def load_set(path: str) -> list[dict]:
    """Records of one result set (a ``run`` output file)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else None


def _group(records: list[dict], trace: int) -> dict[tuple[str, str], list[tuple[int, float]]]:
    grouped: dict[tuple[str, str], list[tuple[int, float]]] = defaultdict(list)
    for record in records:
        if record["trace"] != trace:
            continue
        for name, value in record["metrics"].items():
            grouped[(record["workload"], name)].append((record["seed"], value))
    return grouped


def compare_sets(a: list[dict], b: list[dict]) -> list[dict]:
    """One row per end-to-end metric x workload."""
    rows = []
    a_metrics, b_metrics = _group(a, 0), _group(b, 0)
    for workload in catalog.WORKLOADS:
        for metric in catalog.END_TO_END:
            a_runs = a_metrics.get((workload, metric.name))
            b_runs = b_metrics.get((workload, metric.name))
            if not a_runs or not b_runs:
                continue
            a_values = [v for _, v in a_runs]
            b_values = [v for _, v in b_runs]
            a_mid, b_mid = statistics.median(a_values), statistics.median(b_values)
            sign = 1.0 if metric.better == "lower" else -1.0
            worse_by = sign * (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
            spreads = [s for s in (spread(a_values), spread(b_values)) if s is not None]
            if metric.better == "lower":
                all_better = max(b_values) < min(a_values)
            else:
                all_better = min(b_values) > max(a_values)
            bound = metric.bound_for(workload)
            if worse_by > bound:
                verdict = "worse"
            elif all_better and len(a_values) > 1 and len(b_values) > 1:
                verdict = "better"
            elif spreads and max(spreads) > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "a_median": a_mid,
                    "b_median": b_mid,
                    "worse_by": worse_by,
                    "bound": bound,
                    "a_spread": spread(a_values),
                    "b_spread": spread(b_values),
                    "n": (len(a_values), len(b_values)),
                    "verdict": verdict,
                }
            )
    return rows


def exact_mismatches(a: list[dict], b: list[dict]) -> list[str]:
    """Exact metrics that differ between runs of the same seed."""
    found = []
    exact_e2e = ("sim_latency_p50_ms", "sim_latency_p99_ms")
    exact_counts = tuple(m.name for m in catalog.COUNTS)
    for trace, names in ((0, exact_e2e), (1, exact_counts)):
        a_metrics, b_metrics = _group(a, trace), _group(b, trace)
        for (workload, name), a_runs in a_metrics.items():
            if name not in names or (trace == 1 and workload == "live_loopback"):
                continue
            b_by_seed = dict(b_metrics.get((workload, name), ()))
            for seed, value in a_runs:
                if seed in b_by_seed and b_by_seed[seed] != value:
                    found.append(f"{workload} {name} seed {seed}: {value!r} != {b_by_seed[seed]!r}")
    return found


def _fmt(value: float | None, pattern: str = "{:.4g}") -> str:
    return "n/a" if value is None else pattern.format(value)


def render(rows: list[dict], mismatches: list[str]) -> str:
    lines = [
        f"{'workload':<19}{'metric':<23}{'A median':>11}{'B median':>11}{'unit':>5}"
        f"{'worse by':>10}{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<19}{row['metric']:<23}{row['a_median']:>11.4g}"
            f"{row['b_median']:>11.4g}{row['unit']:>5}{row['worse_by']:>+10.1%}"
            f"{row['bound']:>7.0%}{_fmt(row['a_spread'], '{:.1%}'):>10}"
            f"{_fmt(row['b_spread'], '{:.1%}'):>10}  {row['verdict']}"
        )
    tally = {v: sum(1 for r in rows if r["verdict"] == v) for v in ("same", "better", "worse", "unresolved")}
    lines.append("")
    if rows:
        lines.append(
            "  ".join(f"{k}: {v}" for k, v in tally.items())
            + f"  (runs per set: A {rows[0]['n'][0]}, B {rows[0]['n'][1]})"
        )
    else:
        lines.append("no common metrics")
    if mismatches:
        lines.append(f"exact metrics that differ for the same seed: {len(mismatches)}")
        lines.extend(f"  {m}" for m in mismatches[:20])
    else:
        lines.append("exact metrics (sim latencies, sim counters) identical for every shared seed")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    a, b = load_set(path_a), load_set(path_b)
    rows = compare_sets(a, b)
    mismatches = exact_mismatches(a, b)
    print(render(rows, mismatches))
    return 1 if any(r["verdict"] == "worse" for r in rows) or mismatches else 0
