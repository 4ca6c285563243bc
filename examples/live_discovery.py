"""Live broker discovery over real UDP/TCP sockets on localhost.

This boots the *same* protocol classes the simulator runs -- a BDN,
three brokers with discovery responders, and a discovery client -- on
:class:`repro.runtime.aio.AioRuntime`: real asyncio datagram endpoints,
real stream connections, wall-clock timers.  No protocol logic is
forked; the only difference from a simulation is the runtime object the
nodes are handed.

Flow:

1. Register every host and start the nodes (binding real sockets).
2. Brokers advertise directly with the BDN.
3. The client issues one discovery; the BDN acks + disseminates, the
   brokers respond, the client pings its target set and selects the
   broker with the lowest measured RTT.
4. The outcome (and sim-vs-live comparison inputs) is written as JSON
   to ``--artifact`` for the CI smoke job and
   :func:`repro.experiments.report.runtime_table`.
5. With ``--telemetry PATH``, the run is traced end to end: every node
   shares one :class:`repro.obs.Observability`, the runtime freezes the
   final metrics + flight-recorder snapshot on ``aclose()``, and the
   snapshot (plus the reconstructed request timeline summary) lands at
   ``PATH`` -- the live telemetry artifact CI asserts over.

Exit status is non-zero unless a broker was selected over real sockets.

Run::

    PYTHONPATH=src python examples/live_discovery.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.discovery.requester import DiscoveryOutcome
from repro.experiments.harness import star_world
from repro.experiments.runtime_compare import REFERENCE_SCENARIO
from repro.obs import Observability
from repro.obs.timeline import assemble_from_snapshot, complete_request_ids, phase_agreement
from repro.runtime import create_runtime


async def run(
    seed: int,
    artifact_path: str | None,
    timeout: float,
    telemetry_path: str | None = None,
    bind_ip: str = "127.0.0.1",
) -> int:
    rt = create_runtime("aio", bind_ip=bind_ip)
    obs: Observability | None = None
    if telemetry_path:
        obs = Observability.for_runtime(rt)
        rt.attach_observability(obs)
    # -- the reference world, on real sockets ------------------------------
    world = star_world(rt, seed, obs)
    client = world.client
    await rt.ready()  # every socket attached to the loop

    # Real NTP init takes 3-5 s; for a smoke run, sync immediately.
    for node in world.nodes():
        node.ntp.sync_now()
    world.advertise()

    # -- one discovery round -------------------------------------------
    done: asyncio.Future[DiscoveryOutcome] = asyncio.get_event_loop().create_future()
    started = rt.now
    client.discover(lambda outcome: done.set_result(outcome))
    try:
        outcome = await asyncio.wait_for(done, timeout=timeout)
    except asyncio.TimeoutError:
        print("FAIL: discovery did not complete within", timeout, "s", file=sys.stderr)
        return 2
    elapsed = rt.now - started

    # -- report ---------------------------------------------------------
    result = {
        "runtime": rt.kind,
        "success": outcome.success,
        "selected": outcome.selected.broker_id if outcome.selected else None,
        "selected_rtt": outcome.selected_rtt,
        "via": outcome.via,
        "transmissions": outcome.transmissions,
        "total_time": outcome.total_time,
        "elapsed": elapsed,
        "phases": dict(outcome.phases.durations()),
        "ping_rtts": outcome.ping_rtts,
        "responses": sorted(c.broker_id for c in outcome.candidates),
        "datagrams": {
            "sent": rt.datagrams_sent,
            "delivered": rt.datagrams_delivered,
            "dropped": rt.datagrams_dropped,
        },
        "handler_errors": list(rt.errors),
        # What runtime_compare replays on the simulator for the
        # sim-predicted column (not rerun in the smoke job).
        "sim_reference": {"scenario": REFERENCE_SCENARIO, "seed": seed},
    }
    print(json.dumps(result, indent=2))
    if artifact_path:
        with open(artifact_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)

    await rt.aclose()
    if telemetry_path and rt.telemetry is not None:
        snapshot = dict(rt.telemetry)
        complete = complete_request_ids(snapshot)
        timelines = {}
        for trace_id in complete:
            timeline = assemble_from_snapshot(snapshot, trace_id)
            timelines[trace_id] = {
                "events": len(timeline),
                "nodes": list(timeline.nodes()),
                "phase_percentages": timeline.phase_percentages(),
                "response_fates": timeline.response_fates(),
            }
        snapshot["complete_request_ids"] = list(complete)
        snapshot["timelines"] = timelines
        if outcome.request_uuid in timelines:
            snapshot["phase_agreement"] = phase_agreement(
                assemble_from_snapshot(snapshot, outcome.request_uuid),
                outcome.phases.percentages(),
            )
        with open(telemetry_path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2)
        print(
            f"telemetry: {len(complete)} complete request timeline(s)"
            f" -> {telemetry_path}"
        )
    if rt.errors:
        print("FAIL: handler errors:", rt.errors, file=sys.stderr)
        return 3
    if not outcome.success:
        print("FAIL: no broker selected", file=sys.stderr)
        return 1
    print(f"OK: selected {result['selected']} via {result['via']} in {outcome.total_time:.3f}s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", help="write the outcome JSON here", default=None)
    parser.add_argument(
        "--telemetry", help="trace the run and write the telemetry JSON here", default=None
    )
    parser.add_argument("--timeout", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    return asyncio.run(run(args.seed, args.artifact, args.timeout, args.telemetry))


if __name__ == "__main__":
    sys.exit(main())
