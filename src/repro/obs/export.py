"""Exporters: JSON telemetry snapshots and Prometheus exposition text.

Two consumers drive the formats:

* the live-smoke CI job parses the JSON snapshot back with
  :func:`repro.obs.timeline.assemble_from_snapshot` and asserts at
  least one complete request timeline made it across real sockets;
* the nightly job uploads the Prometheus text dump as an artifact, so
  counter drift between runs is diffable without any scraping stack.
"""

from __future__ import annotations

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "telemetry_snapshot",
    "prometheus_text",
]

SNAPSHOT_VERSION = 1


def telemetry_snapshot(obs) -> dict[str, object]:
    """One JSON-serialisable dict: every metric + every flight ring."""
    rings = {}
    for name in sorted(obs.recorders):
        recorder = obs.recorders[name]
        rings[name] = {
            "capacity": recorder.capacity,
            "dropped": recorder.dropped,
            "emitted": recorder.emitted,
            "events": [event.to_dict() for event in recorder.snapshot()],
        }
    return {
        "version": SNAPSHOT_VERSION,
        "metrics": obs.registry.snapshot(),
        "rings": rings,
    }


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_float(value: float) -> str:
    # Prometheus accepts plain floats; integers render without a dot.
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Every name carries the ``repro_`` prefix.  For each histogram the
    ``+Inf`` bucket is emitted from the histogram's total observation
    count, and the last finite cumulative bucket is asserted to never
    exceed it -- an inconsistent histogram raises instead of exporting
    silently-wrong quantile data.
    """
    lines: list[str] = []
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_float(metric.value)}")
        elif isinstance(metric, Histogram):
            cumulative = metric.cumulative()
            if cumulative and cumulative[-1] > metric.count:
                raise ValueError(
                    f"histogram {metric.name!r} is inconsistent: cumulative "
                    f"bucket count {cumulative[-1]} exceeds total count "
                    f"{metric.count}; +Inf would not be the largest bucket"
                )
            lines.append(f"# TYPE {name} histogram")
            for bound, running in zip(metric.bounds, cumulative):
                lines.append(f'{name}_bucket{{le="{_prom_float(bound)}"}} {running}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {_prom_float(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + "\n"
