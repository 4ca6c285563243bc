"""Ablation -- overload protection under a request storm (PR 3).

A client tries to discover a broker while the BDN is being flooded with
synthetic discovery requests at many times its service rate (the
"millions of users" stress of the ROADMAP north-star).  Two
configurations face the identical storm:

* **naive** -- a deep FIFO in front of the BDN, the paper's fixed
  retransmit ladder, no admission control.  The queue bloats to seconds
  of backlog, the client's datagrams join the back of it (or are
  dropped at the full queue with no signal), every response arrives
  after the ladder has given up, and discovery collapses.
* **protected** -- bounded queue + admission high-watermark (excess is
  refused instantly with ``DiscoveryBusy``), and the client runs the
  retry *budget* / decorrelated-jitter backoff / ``retry_after``
  machinery.  Busy signals arrive in milliseconds, budgeted retries
  ride out the storm window, and the request is admitted as soon as the
  watermark clears.

Both worlds disable multicast and start each trial with a cold cache,
so success has to come through the BDN itself -- this isolates the
overload machinery from PR 1's fallback ladder.

Run as a script to (re)generate ``BENCH_overload.json``::

    PYTHONPATH=src python benchmarks/bench_abl_overload.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    _ROOT = Path(__file__).resolve().parent.parent
    for entry in (str(_ROOT), str(_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)

import numpy as np

from repro.core.config import (
    BDNConfig,
    ClientConfig,
    RetryPolicyConfig,
    ServiceConfig,
)
from repro.core.errors import DiscoveryError
from repro.core.metrics import OverloadStats
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.faults import FaultInjector
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import run_discovery_once
from repro.experiments.report import comparison_table
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.substrate.builder import BrokerNetwork

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_overload.json"

# The BDN serves a discovery request in 50 ms (20/s sustained); the
# storm offers 60/s for four seconds -- 3x the service rate, and >= 10x
# the client's own request rate (a handful of datagrams per discovery).
SERVICE = ServiceConfig(
    queue_capacity=64,
    service_time=0.05,
    service_times=(("BrokerAdvertisement", 0.001), ("PingResponse", 0.001)),
)
STORM_RATE = 60.0
STORM_DURATION = 4.0
#: When each trial's discovery starts, relative to storm onset.
OFFSETS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

PROTECTED_POLICY = RetryPolicyConfig(
    budget_capacity=8,
    budget_refill_per_sec=2.0,
    backoff_base=0.3,
    backoff_cap=1.5,
    breaker_failures=10,
    breaker_cooldown=1.0,
)


def _bdn_config(protected: bool) -> BDNConfig:
    return BDNConfig(
        injection="all",
        service=SERVICE,
        admission_high_watermark=4 if protected else 0,
        busy_retry_after=0.5,
    )


def _client_config(protected: bool, bdn_endpoint) -> ClientConfig:
    return ClientConfig(
        bdn_endpoints=(bdn_endpoint,),
        response_timeout=2.0,
        retransmit_interval=1.0,
        max_retransmits=2,
        use_multicast_fallback=False,
        retry_policy=PROTECTED_POLICY if protected else None,
    )


def _run_trial(seed: int, offset: float, protected: bool) -> dict:
    """One cold client discovering mid-storm; returns trial facts."""
    net = BrokerNetwork(
        seed=seed,
        latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
        loss=NoLoss(),
    )
    responders = []
    for i in range(3):
        broker = net.add_broker(f"b{i}", site=f"s{i}", realm="lab")
        responders.append(DiscoveryResponder(broker))
    bdn = BDN(
        "d0",
        "d0.host",
        net.network,
        np.random.default_rng(seed + 1),
        config=_bdn_config(protected),
        site="bdn-site",
        realm="lab",
    )
    bdn.start()
    for broker in net.brokers.values():
        advertise_direct(broker, bdn.udp_endpoint)
    net.settle(8.0)

    client = DiscoveryClient(
        "c0",
        "c0.host",
        net.network,
        np.random.default_rng(seed + 2),
        config=_client_config(protected, bdn.udp_endpoint),
        site="client-site",
        realm="lab",
        multicast_enabled=False,
    )
    client.start()
    net.sim.run_for(4.0)

    injector = FaultInjector(net.network)
    storm_start = net.sim.now + 0.2
    injector.request_storm(
        bdn.udp_endpoint, rate=STORM_RATE, start=storm_start, duration=STORM_DURATION
    )
    net.sim.run_for(0.2 + offset)  # into the storm
    try:
        outcome = run_discovery_once(client, max_virtual_seconds=60.0)
        success = bool(outcome.success)
        total_time = float(outcome.total_time)
        transmissions = int(outcome.transmissions)
    except DiscoveryError:
        success, total_time, transmissions = False, float("nan"), 0
    net.sim.run_for(STORM_DURATION + 6.0)  # drain
    stats = OverloadStats.gather(
        bdns=[bdn],
        brokers=net.brokers.values(),
        responders=responders,
        clients=[client],
    )
    return {
        "success": success,
        "total_time": total_time,
        "transmissions": transmissions,
        "queue_peak": stats.queue_peak,
        "queue_overflows": stats.queue_overflows,
        "requests_shed": stats.requests_shed,
        "busy_received": stats.busy_received,
        "final_depth": bdn.ingress.depth,
    }


def run_ablation(trials_per_offset: int = 3) -> dict:
    """Run both configurations against the same storms; return summary."""
    out = {}
    for protected in (False, True):
        label = "protected" if protected else "naive"
        trials = []
        for round_index in range(trials_per_offset):
            for k, offset in enumerate(OFFSETS):
                seed = 1000 * round_index + 10 * k
                trials.append(_run_trial(seed, offset, protected))
        ok = [t for t in trials if t["success"]]
        out[label] = {
            "trials": len(trials),
            "success_rate": len(ok) / len(trials),
            "mean_time_s": float(np.mean([t["total_time"] for t in ok])) if ok else None,
            "mean_transmissions": float(np.mean([t["transmissions"] for t in trials])),
            "queue_peak_max": max(t["queue_peak"] for t in trials),
            "queue_overflows": sum(t["queue_overflows"] for t in trials),
            "requests_shed": sum(t["requests_shed"] for t in trials),
            "busy_received": sum(t["busy_received"] for t in trials),
            "final_depth_max": max(t["final_depth"] for t in trials),
        }
    out["storm"] = {
        "rate_per_sec": STORM_RATE,
        "duration_s": STORM_DURATION,
        "service_rate_per_sec": 1.0 / SERVICE.service_time,
        "queue_capacity": SERVICE.queue_capacity,
        "offsets": list(OFFSETS),
    }
    return out


def _assert_acceptance(result: dict) -> None:
    naive, protected = result["naive"], result["protected"]
    # The protected world keeps discovery alive through the storm...
    assert protected["success_rate"] >= 0.9, protected
    # ...with the queue pinned near the admission watermark, far below
    # the naive world's bloated backlog.
    assert protected["queue_peak_max"] <= 16
    assert naive["queue_peak_max"] >= SERVICE.queue_capacity // 2
    # The naive ladder collapses against the same storm.
    assert naive["success_rate"] <= protected["success_rate"] - 0.3, (
        naive["success_rate"],
        protected["success_rate"],
    )
    # Shedding and busy signalling actually happened.
    assert protected["requests_shed"] > 0
    assert protected["busy_received"] > 0


def test_ablation_overload_storm(benchmark):
    from benchmarks.conftest import record_report

    result = run_ablation(trials_per_offset=2)
    _assert_acceptance(result)
    benchmark.pedantic(
        _run_trial, args=(0, 1.5, True), rounds=3, iterations=1
    )
    columns = [
        "success %",
        "mean total (s)",
        "mean transmissions",
        "queue peak",
    ]
    rows = []
    for label in ("naive", "protected"):
        r = result[label]
        rows.append(
            (
                label,
                {
                    "success %": 100.0 * r["success_rate"],
                    "mean total (s)": r["mean_time_s"] if r["mean_time_s"] else float("nan"),
                    "mean transmissions": r["mean_transmissions"],
                    "queue peak": float(r["queue_peak_max"]),
                },
            )
        )
    record_report(
        "abl-overload",
        comparison_table(
            rows,
            columns=columns,
            title=(
                "Ablation -- discovery under a "
                f"{STORM_RATE:g}/s request storm ({STORM_DURATION:g}s)"
            ),
        ),
    )


def main() -> int:
    result = run_ablation(trials_per_offset=3)
    _assert_acceptance(result)
    payload = {"schema": 1, **result}
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for label in ("naive", "protected"):
        r = result[label]
        print(
            f"{label:>10}: success {100 * r['success_rate']:5.1f}%  "
            f"queue peak {r['queue_peak_max']:3d}  "
            f"shed {r['requests_shed']:4d}  busy {r['busy_received']:4d}"
        )
    print(f"wrote {BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
