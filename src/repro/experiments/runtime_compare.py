"""Sim-predicted reference run for the live localhost smoke test.

``examples/live_discovery.py`` boots the reference world
(:func:`repro.experiments.harness.star_world`) on real asyncio sockets
and writes its measured outcome to an artifact JSON.
:func:`simulate_reference` runs the *same* world -- same builder, same
seed -- on the deterministic simulated runtime with loopback-scale
latencies, so :func:`repro.experiments.report.runtime_table` can put the
simulator's prediction next to the live measurement.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.harness import run_discovery_once, star_world
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator

__all__ = ["REFERENCE_SCENARIO", "simulate_reference", "load_artifact"]

#: Name stamped into the live artifact's ``sim_reference`` block.
REFERENCE_SCENARIO = "star-3-brokers"

#: One-way propagation delay of the reference world: loopback scale,
#: since the live smoke run binds every node to 127.0.0.1.
LOOPBACK_LATENCY = 0.0005


def simulate_reference(seed: int = 5) -> dict[str, Any]:
    """Run the smoke-test scenario on the simulated runtime.

    Returns the same keys the live artifact carries for comparison:
    ``phases``, ``total_time``, ``selected``, ``selected_rtt``, ``via``,
    ``transmissions`` and ``responses``.
    """
    sim = Simulator()
    network = Network(
        sim,
        latency=UniformLatencyModel(base=LOOPBACK_LATENCY),
        loss=NoLoss(),
        rng=np.random.default_rng(seed + 1),
    )
    world = star_world(network, seed)
    sim.run_for(6.0)  # NTP settles; matches the live run's sync_now()
    world.advertise()
    sim.run_for(0.5)

    outcome = run_discovery_once(world.client, max_virtual_seconds=10.0)
    world.close()
    return {
        "runtime": "sim",
        "scenario": REFERENCE_SCENARIO,
        "seed": seed,
        "success": outcome.success,
        "selected": outcome.selected.broker_id if outcome.selected else None,
        "selected_rtt": outcome.selected_rtt,
        "via": outcome.via,
        "transmissions": outcome.transmissions,
        "total_time": outcome.total_time,
        "phases": dict(outcome.phases.durations()),
        "responses": sorted(c.broker_id for c in outcome.candidates),
    }


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Read a live smoke-run artifact written by ``live_discovery.py``."""
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    if "phases" not in artifact or "total_time" not in artifact:
        raise ValueError(f"{path} is not a live-discovery artifact")
    return artifact


def main(argv: list[str] | None = None) -> int:
    """Print the sim-vs-live table for one smoke-run artifact.

    Usage::

        PYTHONPATH=src python -m repro.experiments.runtime_compare artifact.json
    """
    import argparse

    from repro.experiments.report import runtime_table

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("artifact", help="JSON written by live_discovery.py --artifact")
    args = parser.parse_args(argv)
    live = load_artifact(args.artifact)
    reference = live.get("sim_reference", {})
    sim = simulate_reference(seed=int(reference.get("seed", 5)))
    print(runtime_table(sim, live))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
