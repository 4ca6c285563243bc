#!/usr/bin/env python
"""bench_mega: a 100k-client flash crowd against a sharded BDN tier.

The paper's evaluation stops at five brokers; this benchmark asks what
the reproduction's fabric does when an entire grid session starts at
once -- ``clients`` discovery requesters arriving inside a ``window``
of simulated seconds, served by one BDN whose advertisement table and
dedup cache are partitioned into ``shards``
(:mod:`repro.discovery.sharding`) and a tier of responder brokers.

Each joining client is deliberately *lean* -- one bound UDP endpoint,
one closure -- not a full :class:`DiscoveryClient`, so the measured cost
is the BDN tier and the scheduler, not harness object churn.  A client:

1. wakes at its arrival time (one ``schedule_at`` timer armed up
   front -- the flash crowd is 100k outstanding timers, the hierarchical
   wheel's home turf),
2. fires a ``DiscoveryRequest`` at the BDN and arms a response-timeout
   timer,
3. on the first ``DiscoveryResponse``, records the *simulated* request
   latency and cancels the timeout.

Step 3 is the scheduler's worst case under the old binary heap: ~one
armed-then-cancelled far-future timer per client, the lease/retry
pattern that lazy deletion piles up and compaction repeatedly copies.
The wheel cancels in O(1) and sweeps amortised.

Reported metrics:

* ``events_per_sec`` -- wall-clock throughput (machine-dependent and
  ungated here: roundbench's ``sim_flash_crowd`` is this shape under the
  per-PR base-vs-head gate);
* ``latency_p50_s`` / ``latency_p99_s`` -- per-discovery request->first
  -response latency percentiles in **simulated** seconds.  These are
  bit-deterministic for a given seed, so ``--compare`` requires the two
  schedulers to agree on them exactly;
* ``detail.failed_discoveries`` -- clients whose request timed out.
  Must be zero: the flash crowd is loss-free by construction, so any
  failure is a scheduler or registry bug, not bad luck.

Run standalone (the nightly job runs ``--compare`` at 100k)::

    PYTHONPATH=src python benchmarks/bench_mega.py --clients 100000
    PYTHONPATH=src python benchmarks/bench_mega.py --compare   # wheel vs heap
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.config import BDNConfig, Endpoint  # noqa: E402
from repro.core.messages import DiscoveryRequest, DiscoveryResponse  # noqa: E402
from repro.discovery.advertisement import advertise_direct  # noqa: E402
from repro.discovery.bdn import BDN  # noqa: E402
from repro.discovery.responder import DiscoveryResponder  # noqa: E402
from repro.simnet.latency import UniformLatencyModel  # noqa: E402
from repro.simnet.loss import NoLoss  # noqa: E402
from repro.substrate.builder import BrokerNetwork  # noqa: E402

#: Ports per synthetic client host.  100k clients spread over 64 hosts
#: keeps the fabric's path cache tiny while endpoints stay unique.
_CLIENT_HOSTS = 64
_BASE_PORT = 20_000


def run_mega_flash_crowd(
    clients: int,
    shards: int = 16,
    n_brokers: int = 8,
    window: float = 30.0,
    timeout: float = 30.0,
    seed: int = 2005,
    scheduler: str = "wheel",
) -> dict:
    """Join ``clients`` requesters inside ``window`` simulated seconds.

    Returns the result record (events/sec, latency percentiles,
    failure counts).  ``scheduler`` picks the world's timer
    implementation.
    """
    net = BrokerNetwork(
        seed=seed,
        latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
        loss=NoLoss(),
        scheduler=scheduler,
    )
    sim = net.sim
    names = [f"b{i}" for i in range(n_brokers)]
    for i, name in enumerate(names):
        broker = net.add_broker(name, site=f"site{i % 4}")
        DiscoveryResponder(broker)

    bdn = BDN(
        "bdn0",
        "bdn0.mega",
        net.network,
        np.random.default_rng(seed + 1),
        config=BDNConfig(injection="closest_farthest", shards=shards),
        site="site0",
    )
    bdn.start()
    for broker in net.broker_list():
        advertise_direct(broker, bdn.udp_endpoint)
    net.settle(8.0)

    hosts = [f"ch{i}.mega" for i in range(_CLIENT_HOSTS)]
    for i, host in enumerate(hosts):
        net.network.register_host(host, site=f"site{i % 4}")

    rng = np.random.default_rng(seed + 2)
    arrivals = np.sort(rng.uniform(0.0, window, size=clients))
    t0 = sim.now + 0.5

    sent_at = np.zeros(clients)
    latencies: list[float] = []
    timeout_timers: list = [None] * clients
    failures = [0]

    def make_client(j: int) -> Endpoint:
        endpoint = Endpoint(hosts[j % _CLIENT_HOSTS], _BASE_PORT + j // _CLIENT_HOSTS)

        def on_udp(message, src) -> None:
            if type(message) is not DiscoveryResponse:
                return
            timer = timeout_timers[j]
            if timer is None:
                return  # duplicate response after the first
            timeout_timers[j] = None
            timer.cancel()
            latencies.append(sim.now - sent_at[j])

        def on_timeout() -> None:
            timeout_timers[j] = None
            failures[0] += 1

        def join() -> None:
            sent_at[j] = sim.now
            net.network.send_udp(
                endpoint,
                bdn.udp_endpoint,
                DiscoveryRequest(
                    uuid=f"mega-{j:06d}",
                    requester_host=endpoint.host,
                    requester_port=endpoint.port,
                    transports=("udp",),
                    issued_at=sim.now,
                ),
            )
            timeout_timers[j] = sim.schedule(timeout, on_timeout)

        net.network.bind_udp(endpoint, on_udp)
        sim.schedule_at(t0 + float(arrivals[j]), join)
        return endpoint

    events_before = sim.events_processed
    sim_before = sim.now
    start = time.perf_counter()
    for j in range(clients):
        make_client(j)
    sim.run(until=t0 + window + timeout + 1.0)
    wall = time.perf_counter() - start
    events = sim.events_processed - events_before

    lat = np.asarray(latencies)
    completed = len(latencies)
    return {
        "events_per_sec": events / wall,
        "wall_time_s": wall,
        "sim_time_s": sim.now - sim_before,
        "events_processed": events,
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "latency_p50_s": float(np.percentile(lat, 50)) if completed else None,
        "latency_p99_s": float(np.percentile(lat, 99)) if completed else None,
        "detail": {
            "clients": clients,
            "shards": shards,
            "brokers": n_brokers,
            "scheduler": scheduler,
            "completed_discoveries": completed,
            "failed_discoveries": failures[0],
            "dedup_hits": bdn.dedup.hits,
            "requests_disseminated": bdn.requests_disseminated,
            "scheduler_compactions": sim.compactions,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=100_000)
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--brokers", type=int, default=8)
    parser.add_argument("--window", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--scheduler", choices=("wheel", "heap"), default="wheel",
        help="timer implementation (default: wheel)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="run wheel AND heap at the same size, print the ratio",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the result record(s) as JSON to this path",
    )
    args = parser.parse_args(argv)

    def show(label: str, r: dict) -> None:
        d = r["detail"]
        print(
            f"{label:>6}: {r['events_per_sec']:>12.0f} events/s"
            f"  wall {r['wall_time_s']:.2f} s"
            f"  p50 {r['latency_p50_s'] * 1e3:.1f} ms"
            f"  p99 {r['latency_p99_s'] * 1e3:.1f} ms"
            f"  completed {d['completed_discoveries']}"
            f"  failed {d['failed_discoveries']}"
            f"  rss {r['peak_rss_kb']} kB"
        )

    kwargs = dict(
        clients=args.clients,
        shards=args.shards,
        n_brokers=args.brokers,
        window=args.window,
        seed=args.seed,
    )
    if args.compare:
        wheel = run_mega_flash_crowd(scheduler="wheel", **kwargs)
        show("wheel", wheel)
        heap = run_mega_flash_crowd(scheduler="heap", **kwargs)
        show("heap", heap)
        ratio = wheel["events_per_sec"] / heap["events_per_sec"]
        same = (
            wheel["latency_p50_s"] == heap["latency_p50_s"]
            and wheel["latency_p99_s"] == heap["latency_p99_s"]
        )
        print(f"wheel/heap wall-clock speedup: {ratio:.2f}x")
        print(f"virtual-time latencies identical: {same}")
        if args.output is not None:
            record = {"wheel": wheel, "heap": heap, "speedup": ratio, "identical_virtual_time": same}
            args.output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
            print(f"wrote {args.output}")
        if not same:
            print("FAIL: schedulers disagree on virtual time", file=sys.stderr)
            return 1
        return 0 if wheel["detail"]["failed_discoveries"] == 0 else 1
    result = run_mega_flash_crowd(scheduler=args.scheduler, **kwargs)
    show(result["detail"]["scheduler"], result)
    if args.output is not None:
        args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0 if result["detail"]["failed_discoveries"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
