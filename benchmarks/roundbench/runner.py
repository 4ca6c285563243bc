"""Runs one workload in this process: untraced, or traced + counted.

**Untraced** (``--trace 0``): set-up, then segments until the
``--seconds`` window closes (never fewer than :data:`EXACT_SEGMENTS`),
each bracketed by calibration spins.  Host-time metrics are medians over
all segments; virtual-time latencies come from the first
:data:`EXACT_SEGMENTS` segments only, a set that does not depend on how
fast the host was, so they are bit-exact for a seed.

**Traced** (``--trace 1``): two fixed-size passes over the same inputs.
The first, untraced, yields the exact public counters and the baseline
host time per discovery; the second runs under :class:`Tracer` and
yields ``<layer>.self_s / calls / share``.  Their ratio is
``trace.overhead_x``.  Neither feeds an end-to-end metric.
"""

from __future__ import annotations

import resource
import time
from functools import partial

from . import catalog
from .calib import REF_OPS, SegmentClock, median, percentile, spin
from .live import LiveLoopback
from .tracer import LAYERS, Tracer
from .workloads import SIM_WORKLOADS, Counters, SegmentOut

__all__ = ["EXACT_SEGMENTS", "TRACED_SEGMENTS", "run_untraced", "run_traced", "setup_only"]

#: Segments whose virtual-time results are reported (fixed per profile).
EXACT_SEGMENTS = 15
#: Segments per pass in traced mode (quarter-size: never used end to end).
TRACED_SEGMENTS = 4

# live_loopback: how the measuring window is split.
_LIVE_TWIN_DISCOVERIES = 1000
_LIVE_UNLOADED_SHARE = 0.36
_LIVE_SATURATED_SHARE = 0.54
_LIVE_SEGMENT_S = 0.4


def _scale(seconds: float) -> float:
    return min(1.0, seconds / catalog.FULL_SECONDS)


def _live_segment_s(seconds: float) -> float:
    return _LIVE_SEGMENT_S * min(1.0, max(_scale(seconds), 0.25))


def _make(name: str, seed: int, seconds: float, tracer=None):
    if name == LiveLoopback.name:
        return LiveLoopback(seed, tracer)
    return SIM_WORKLOADS[name](seed, _scale(seconds), tracer)


def _timed_setup(name: str, seed: int, seconds: float, started: float, ops_at_start: float):
    """Set the workload up.  Returns it with its set-up time, normalised
    and raw: the entry script's first line to here, scaled by the machine
    speed seen at both ends."""
    workload = _make(name, seed, seconds)
    workload.setup()
    raw = time.perf_counter() - started
    speed = 0.5 * (ops_at_start + spin()) / REF_OPS
    return workload, raw * speed, raw


def setup_only(
    name: str, seed: int, seconds: float, started: float, ops_at_start: float
) -> tuple[float, float]:
    """One more set-up time sample (normalised, raw): the same interval
    :func:`run_untraced` times, then tear down."""
    workload, setup_s, setup_s_raw = _timed_setup(name, seed, seconds, started, ops_at_start)
    workload.close()
    return setup_s, setup_s_raw


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _segment_counts(out: SegmentOut) -> dict[str, float]:
    return {"discoveries": out.completed, "events": out.events}


def _host_metrics(clock: SegmentClock, outs: list[SegmentOut]) -> tuple[dict, dict]:
    """Normalised medians over segments, and their raw counterparts."""
    pairs = [(s, o) for s, o in zip(clock.segments, outs) if o.completed]
    if not pairs:
        raise RuntimeError("no segment completed a discovery")
    metrics = {
        "discoveries_per_s": median(s.rate("discoveries") for s, _ in pairs),
        "events_per_s": median(s.rate("events") for s, _ in pairs),
        "cpu_ms_per_discovery": median(
            s.cpu_s * s.speed * 1000.0 / o.completed for s, o in pairs
        ),
    }
    raw = {
        "discoveries_per_s_raw": median(s.raw_rate("discoveries") for s, _ in pairs),
        "events_per_s_raw": median(s.raw_rate("events") for s, _ in pairs),
        "cpu_ms_per_discovery_raw": median(s.cpu_s * 1000.0 / o.completed for s, o in pairs),
        "segments": len(pairs),
        "segment_wall_s": median(s.wall_s for s, _ in pairs),
        "machine_speed": median(s.speed for s, _ in pairs),
    }
    return metrics, raw


def _segment_wall_latency(clock: SegmentClock, outs: list[SegmentOut]) -> tuple[dict, dict]:
    """Host latency percentiles per segment, scaled by the segment's
    machine speed; the metric is the median over segments.  (Pooling the
    samples of all segments, or of chunks of five, was measured: a stall
    that hits one segment then reaches the pooled tail, and the
    run-to-run spread of the 99th percentile was about the same on the
    closed-loop workloads and larger on the open-loop ones, three times
    on ``sim_flash_crowd``.)"""
    p50, p99, p50_raw, p99_raw = [], [], [], []
    for segment, out in zip(clock.segments, outs):
        if not out.wall_ms:
            continue
        ordered = sorted(out.wall_ms)
        p50_raw.append(percentile(ordered, 50))
        p99_raw.append(percentile(ordered, 99))
        p50.append(p50_raw[-1] * segment.speed)
        p99.append(p99_raw[-1] * segment.speed)
    metrics = {"wall_latency_p50_ms": median(p50), "wall_latency_p99_ms": median(p99)}
    raw = {
        "wall_latency_p50_ms_raw": median(p50_raw),
        "wall_latency_p99_ms_raw": median(p99_raw),
        "wall_latency_samples": sum(len(out.wall_ms) for out in outs),
    }
    return metrics, raw


def _sim_latency(sim_ms: list[float]) -> dict:
    ordered = sorted(sim_ms)
    return {
        "sim_latency_p50_ms": percentile(ordered, 50),
        "sim_latency_p99_ms": percentile(ordered, 99),
    }


def _run_sim_segments(workload, clock: SegmentClock, deadline: float | None, minimum: int):
    """Segments until ``deadline`` (``None``: exactly ``minimum``).

    ``workload.prepare(i)`` builds what segment ``i`` runs in before the
    segment's clock starts.  The host time it took is returned, and the
    spans it recorded are dropped, so the traced pass can leave both out
    of its window.
    """
    outs: list[SegmentOut] = []
    exact_counts: Counters | None = None
    prepare_s = 0.0
    run_segment, prepare = workload.segment, workload.prepare
    if workload.tracer is not None:
        # Whatever a segment spends outside the program is the generator's.
        run_segment = workload.tracer.wrap(run_segment, f"{workload.name}.segment", "bench.loadgen")
        prepare = partial(workload.tracer.discard, prepare)

    def body() -> dict[str, float]:
        outs.append(run_segment(len(outs)))
        return _segment_counts(outs[-1])

    while len(outs) < minimum or (deadline is not None and time.perf_counter() < deadline):
        prepare_start = time.perf_counter()
        prepare(len(outs))
        prepare_s += time.perf_counter() - prepare_start
        clock.measure(body)
        if len(outs) == minimum:
            exact_counts = workload.counters()
    return outs, exact_counts, prepare_s


def _measure_live(workload: LiveLoopback, clock: SegmentClock, seconds: float):
    """unloaded -> saturated -> twin; see :mod:`.live`.  The twin runs
    last: it is a simulation on this thread, and while it runs the live
    world's event loop does not.  Run first, a twin slowed by a busy
    host stalled the live world long enough that every round of the run
    then took 3 s of timeouts (README, "What the first run found")."""
    totals = SegmentOut()
    workload.run_unloaded(seconds * _LIVE_UNLOADED_SHARE)
    clock.speed_now()
    outs = workload.run_saturated(
        clock,
        max(EXACT_SEGMENTS, round(seconds * _LIVE_SATURATED_SHARE / _LIVE_SEGMENT_S)),
        _live_segment_s(seconds),
    )
    workload.run_twin(max(20, int(_LIVE_TWIN_DISCOVERIES * _scale(seconds))))
    for out in (workload.twin, workload.unloaded, workload.drained, *outs):
        totals.add_totals(out)
    metrics, raw = _host_metrics(clock, outs)
    slices = workload.unloaded_slices
    metrics["wall_latency_p50_ms"] = median(percentile(s, 50) for s in slices)
    metrics["wall_latency_p99_ms"] = median(percentile(s, 99) for s in slices)
    pooled = sorted(workload.unloaded.wall_ms)
    raw.update(
        wall_latency_samples=len(pooled),
        wall_latency_slices=len(slices),
        wall_latency_pooled_p99_ms=percentile(pooled, 99),
        wall_latency_max_ms=pooled[-1],
        unloaded_clients=workload.unloaded_clients,
        unloaded_cpu_share=workload.unloaded_cpu_share,
        saturated_cpu_share=workload.saturated_cpu_share,
        saturated_wall_latency_p50_ms=median(
            percentile(sorted(o.wall_ms), 50) for o in outs if o.wall_ms
        ),
    )
    return metrics, raw, totals, workload.counters(), workload.twin.sim_ms


def _measure_sim(workload, clock: SegmentClock, seconds: float):
    """Segments until the window closes, then drain."""
    totals = SegmentOut()
    outs, counts, _ = _run_sim_segments(
        workload, clock, time.perf_counter() + seconds, EXACT_SEGMENTS
    )
    for out in (*outs, workload.drain()):
        totals.add_totals(out)
    metrics, raw = _host_metrics(clock, outs)
    wall_metrics, wall_raw = _segment_wall_latency(clock, outs)
    metrics.update(wall_metrics)
    raw.update(wall_raw)
    return metrics, raw, totals, counts, workload.exact_latencies_ms(outs, EXACT_SEGMENTS)


def run_untraced(name: str, seed: int, seconds: float, started: float, ops_at_start: float) -> dict:
    """One ``--trace 0`` run; returns the result record (the caller adds
    the extra set-up samples)."""
    workload, setup_s, setup_s_raw = _timed_setup(name, seed, seconds, started, ops_at_start)
    clock = SegmentClock()
    window_start = time.perf_counter()
    measure = _measure_live if isinstance(workload, LiveLoopback) else _measure_sim
    metrics, raw, totals, counts, sim_ms = measure(workload, clock, seconds)
    raw["measured_s"] = time.perf_counter() - window_start
    metrics.update(_sim_latency(sim_ms))
    raw["sim_latency_samples"] = len(sim_ms)
    violations = _violations(workload, totals)
    workload.close()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = _peak_rss_mb()
    raw["setup_s_raw"] = setup_s_raw
    raw["failed_share"] = totals.failed / max(1, totals.attempted)
    raw["exact_counts"] = dict(counts or {})
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "correct": not violations,
        "violations": violations,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
        "raw": raw,
    }


def _violations(workload, totals: SegmentOut) -> list[str]:
    found = workload.violations()
    if totals.failed > workload.max_failed_share * totals.attempted:
        found.append(
            f"{totals.failed} of {totals.attempted} discoveries failed "
            f"(ceiling {workload.max_failed_share:.1%})"
        )
    if totals.attempted != totals.completed + totals.failed:
        found.append(
            f"attempted {totals.attempted} != completed {totals.completed} + failed {totals.failed}"
        )
    return found


# ---------------------------------------------------------------------------
# Traced mode
# ---------------------------------------------------------------------------


def _fixed_pass(name: str, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """``TRACED_SEGMENTS`` segments of fixed size, traced or not."""
    workload = _make(name, seed, seconds, tracer)
    workload.setup()
    spin_fn = spin
    if tracer is not None:
        tracer.reset()  # set-up spans are real but not part of the measured window
        spin_fn = tracer.wrap(spin, "calibration.spin", "bench.calibration")
    window_start = time.perf_counter()
    clock = SegmentClock(spin_fn)
    if isinstance(workload, LiveLoopback):
        outs = workload.run_saturated(clock, TRACED_SEGMENTS, _live_segment_s(seconds))
        counts, prepare_s = workload.counters(), 0.0
    else:
        outs, counts, prepare_s = _run_sim_segments(workload, clock, None, TRACED_SEGMENTS)
    window_s = time.perf_counter() - window_start - prepare_s
    # Summarise before draining: the window above is what shares are of.
    summary = tracer.summarize() if tracer is not None else None
    totals = SegmentOut()
    tail = workload.drained if isinstance(workload, LiveLoopback) else workload.drain()
    for out in (*outs, tail):
        totals.add_totals(out)
    violations = _violations(workload, totals)
    workload.close()
    completed = sum(o.completed for o in outs)
    timed_norm = sum(s.wall_s * s.speed for s in clock.segments)
    return {
        "counts": counts,
        "totals": totals,
        "violations": violations,
        "completed": completed,
        "window_s": window_s,
        "summary": summary,
        "host_us_per_discovery": timed_norm * 1e6 / max(1, completed),
        "sim_ms": [ms for out in outs for ms in out.sim_ms],
    }


def _count_metrics(name: str, counts: Counters, totals: SegmentOut) -> dict[str, float]:
    """The ``count`` per-layer metrics from one pass's public counters."""
    done = max(1, totals.completed)
    live = name == LiveLoopback.name
    seen = counts.get("responder_dedup_hits", 0) + counts.get("responder_dedup_misses", 0)
    phase_total = counts.get("phase_total_s", 0.0)
    values = {
        "e2e.failed_share": totals.failed / max(1, totals.attempted),
        "simnet.simulator.events_per_discovery": 0 if live else counts.get("events", 0) / done,
        "simnet.simulator.timers_pending_peak": counts.get("timers_pending_peak", 0),
        "simnet.simulator.compactions": counts.get("compactions", 0),
        "simnet.network.datagrams_per_discovery": 0 if live else counts.get("datagrams", 0) / done,
        "simnet.network.bytes_per_discovery": 0 if live else counts.get("bytes", 0) / done,
        "simnet.network.datagrams_dropped": 0 if live else counts.get("datagrams_dropped", 0),
        "runtime.aio.datagrams_per_discovery": counts.get("datagrams", 0) / done if live else 0,
        "runtime.aio.datagrams_dropped": counts.get("datagrams_dropped", 0) if live else 0,
        "runtime.aio.handler_errors": counts.get("handler_errors", 0),
        "discovery.bdn.requests_disseminated": counts.get("requests_disseminated", 0),
        "discovery.bdn.dedup_hits": counts.get("bdn_dedup_hits", 0),
        "discovery.bdn.stale_targets": counts.get("stale_targets", 0),
        "discovery.bdn.registry_size": counts.get("registry_size", 0),
        "discovery.bdn.leases_expired": counts.get("leases_expired", 0),
        "discovery.responder.requests_processed": counts.get("requests_processed", 0),
        "discovery.responder.duplicate_share": (
            counts.get("responder_dedup_hits", 0) / seen if seen else 0.0
        ),
        "discovery.requester.transmissions_per_discovery": counts.get("transmissions", 0) / done,
        "discovery.requester.responses_per_discovery": counts.get("responses", 0) / done,
        "discovery.replication.appends_per_write": (
            counts.get("appends", 0) / counts["registry_writes"]
            if counts.get("registry_writes")
            else 0.0
        ),
        "discovery.replication.repair_ads_sent": counts.get("repair_ads_sent", 0),
        "discovery.replication.elections": counts.get("elections", 0),
    }
    for phase in catalog.PHASES:
        values[f"discovery.requester.phase.{phase}_share"] = (
            counts.get(f"phase.{phase}_s", 0.0) / phase_total if phase_total else 0.0
        )
    return values


def run_traced(name: str, seed: int, seconds: float) -> dict:
    """One ``--trace 1`` run (the caller adds the microbenchmarks)."""
    baseline = _fixed_pass(name, seed, seconds, None)
    tracer = Tracer()
    tracer.calibrate()
    tracer.install()
    try:
        traced = _fixed_pass(name, seed, seconds, tracer)
    finally:
        tracer.uninstall()
    summary = traced["summary"]
    window_s = traced["window_s"]
    total_self = sum(entry["self_s"] for entry in summary["layers"].values())
    metrics = _count_metrics(name, baseline["counts"], baseline["totals"])
    for layer in LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.share"] = entry["self_s"] / window_s
    metrics["trace.overhead_x"] = (
        traced["host_us_per_discovery"] / baseline["host_us_per_discovery"]
    )
    # Time in the measured window that no span covers (the runner's own
    # loop between segments) is the gap; a larger one means work ran
    # outside every seam the tracer knows.
    metrics["trace.attribution_error"] = abs(total_self - window_s) / window_s
    violations = baseline["violations"] + traced["violations"]
    if name != LiveLoopback.name and traced["sim_ms"] != baseline["sim_ms"]:
        violations.append("tracing changed the virtual-time results")
    if not summary["nested_ok"]:
        violations.append("spans do not nest")
    totals = baseline["totals"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "correct": not violations,
        "violations": violations,
        "attempted": totals.attempted + traced["totals"].attempted,
        "failed": totals.failed + traced["totals"].failed,
        "metrics": metrics,
        "raw": {
            "spans": summary["spans"],
            "span_uuids": summary["uuids"],
            "negative_self_spans": summary["negative_self"],
            "traced_window_s": window_s,
            "tracer_inner_cost_us": tracer.inner_cost * 1e6,
            "tracer_outer_cost_us": tracer.outer_cost * 1e6,
            "untraced_us_per_discovery": baseline["host_us_per_discovery"],
            "traced_us_per_discovery": traced["host_us_per_discovery"],
            "discoveries": baseline["completed"],
        },
    }
