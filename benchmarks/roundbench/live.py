"""``live_loopback``: the same engines on real asyncio sockets.

One process, one thread, one event loop.  An :class:`AioRuntime` on
127.0.0.1 carries 1 BDN (``closest_farthest``, ``ping_interval=0.5``),
5 brokers star-linked over real TCP with ``DiscoveryResponder``s, and
full ``DiscoveryClient``s (``max_responses=5``, ``target_set_size=3``).
``fanout_delay`` is 10 us: on a wall clock the default 60 ms models a
2005 JVM by sleeping.  Traffic crosses the host loopback, not a link.

Three phases share the measuring window:

**unloaded** (live)
    ``os.cpu_count()`` closed-loop clients (2 here, ~8 % CPU): the wall
    latencies.  Not normalised: they are timers, not CPU.
**saturated** (live)
    32 closed-loop client engines on the same thread, cut into fixed
    wall-time slices: capacity, CPU per round.  (16 engines, each
    waiting ~22 ms of timers per round, could issue at most ~730
    rounds/s -- barely above the ~680/s one core can serve -- so the
    phase ran at 62-93 % CPU from run to run; 32 make it CPU-bound.)
**twin** (sim)
    The identical deployment on the simulated runtime with loopback
    -scale latencies, run in virtual time.  It gives this workload its
    ``sim_latency_*``: the round's *modelled* delay (responder
    processing, ping spacing, selection cost), which is what the wall
    latency would be if the live runtime cost nothing.  It runs last,
    when the live world is no longer needed: the simulation occupies
    the thread, so the live event loop stands still meanwhile.
"""

from __future__ import annotations

import asyncio
import os
import time
from functools import partial

import numpy as np

from repro.core.config import BDNConfig, ClientConfig
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.runtime.aio import AioRuntime
from repro.runtime.api import as_runtime
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator
from repro.substrate.broker import Broker

from .calib import SegmentClock
from .workloads import Counters, SegmentOut, drive_closed_loop

__all__ = ["LoopbackWorld", "LiveLoopback"]

N_BROKERS = 5
SATURATING_CLIENTS = 32


class LoopbackWorld:
    """The ``live_loopback`` deployment, on whichever runtime it is handed."""

    def __init__(self, runtime, seed: int, n_clients: int) -> None:
        self.runtime = runtime
        root = np.random.default_rng([seed, 0x11FE])

        def rng() -> np.random.Generator:
            return np.random.default_rng(root.integers(0, 2**63))

        self.bdn = BDN(
            "bdn0",
            "bdn0.local",
            runtime,
            rng(),
            config=BDNConfig(injection="closest_farthest", ping_interval=0.5, fanout_delay=1e-5),
            site="site-bdn",
            realm="lab",
        )
        self.brokers = [
            Broker(f"b{i}", f"b{i}.local", runtime, rng(), site=f"site-b{i}", realm="lab")
            for i in range(N_BROKERS)
        ]
        self.responders = [DiscoveryResponder(broker) for broker in self.brokers]
        self.clients = [
            DiscoveryClient(
                f"c{i}",
                f"c{i}.local",
                runtime,
                rng(),
                config=ClientConfig(
                    bdn_endpoints=(self.bdn.udp_endpoint,),
                    response_timeout=1.0,
                    retransmit_interval=1.0,
                    ping_timeout=1.0,
                    max_responses=N_BROKERS,
                    target_set_size=3,
                ),
                site=f"site-c{i}",
                realm="lab",
            )
            for i in range(n_clients)
        ]
        self.registered = frozenset(b.name for b in self.brokers)

    def start(self) -> None:
        self.bdn.start()
        for broker in self.brokers:
            broker.start()
        for client in self.clients:
            client.start()

    def join(self) -> None:
        """NTP, star links, registrations (call once sockets are ready)."""
        for node in (self.bdn, *self.brokers, *self.clients):
            node.ntp.sync_now()
        hub = self.brokers[0]
        for spoke in self.brokers[1:]:
            hub.link_to(spoke)
        for broker in self.brokers:
            advertise_direct(broker, self.bdn.udp_endpoint)

    @property
    def settled(self) -> bool:
        """Links up, every broker registered and distance-measured."""
        return (
            self.brokers[0].link_count == N_BROKERS - 1
            and all(b.link_count == 1 for b in self.brokers[1:])
            and len(self.bdn.distance_table()) == N_BROKERS
        )


def run_twin(seed: int, discoveries: int, tracer=None) -> tuple[SegmentOut, Counters]:
    """The deployment on the simulated runtime, in virtual time."""
    sim = Simulator()
    network = Network(
        sim,
        latency=UniformLatencyModel(base=5e-5, local=5e-5, jitter_fraction=0.05),
        loss=NoLoss(),
        rng=np.random.default_rng([seed, 0x7715]),
    )
    runtime = as_runtime(network)
    if tracer is not None:
        runtime = tracer.wrap_runtime(runtime)
    world = LoopbackWorld(runtime, seed, n_clients=1)
    world.start()
    world.join()
    sim.run_for(1.0)
    if not world.settled:
        raise RuntimeError("loopback twin did not settle")
    out, counts = SegmentOut(), Counters()
    drive_closed_loop(world.clients[0], sim, discoveries, 0.05, out, counts, world.registered)
    counts["stale_targets"] = world.bdn.stale_targets
    return out, counts


class LiveLoopback:
    """The live workload; the runner calls ``setup``, then the phases."""

    name = "live_loopback"
    max_failed_share = 0.0
    #: Slices the unloaded phase is cut into: its latency percentiles
    #: are medians over slices, so a rare host stall (the box is shared)
    #: moves one slice, not the metric.
    UNLOADED_SLICES = 12

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.loop = asyncio.new_event_loop()
        self.runtime: AioRuntime | None = None
        self.world: LoopbackWorld | None = None
        self.counts = Counters()
        self.unloaded_clients = os.cpu_count() or 1
        self.twin: SegmentOut | None = None
        self.unloaded = SegmentOut()
        self.unloaded_slices: list[list[float]] = []
        self.drained = SegmentOut()
        self.unloaded_cpu_share = 0.0
        self.saturated_cpu_share = 0.0
        # Where finished rounds are booked; phases swap these.
        self._sink = SegmentOut()
        self._sink_counts = Counters()
        self._finished = self._book
        if tracer is not None:
            self._finished = tracer.wrap(self._book, "closed_loop.finished", "bench.loadgen")

    # -- lifecycle ---------------------------------------------------------
    def _run(self, coro):
        if self.tracer is not None:
            return self.tracer.run_loop(self.loop, coro)
        return self.loop.run_until_complete(coro)

    def setup(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.runtime = AioRuntime()
        runtime = self.runtime
        if self.tracer is not None:
            runtime = self.tracer.wrap_runtime(runtime)
        self.world = LoopbackWorld(runtime, self.seed, n_clients=SATURATING_CLIENTS)
        self._run(self._settle())

    async def _settle(self) -> None:
        world = self.world
        world.start()
        await self.runtime.ready()
        world.join()
        deadline = time.perf_counter() + 10.0
        while not world.settled:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"live world did not settle: {list(self.runtime.errors)}")
            await asyncio.sleep(0.01)
        # Warm-up: a few rounds on every client engine, booked nowhere.
        remaining = {client.name: 3 for client in world.clients}

        def more(client) -> bool:
            remaining[client.name] -= 1
            return remaining[client.name] >= 0

        await asyncio.gather(*(self._closed_loop(c, partial(more, c)) for c in world.clients))
        self._sink_counts = self.counts

    def close(self) -> None:
        if self.runtime is not None:
            self.loop.run_until_complete(self.runtime.aclose())
            self.runtime = None
        self.loop.close()
        asyncio.set_event_loop(None)

    # -- driving -----------------------------------------------------------
    def _book(self, started: float, future, outcome) -> None:
        """Completion callback of one round: book it, wake its loop."""
        now = time.perf_counter()
        out, counts = self._sink, self._sink_counts
        out.attempted += 1
        if outcome.success:
            out.completed += 1
            out.wall_ms.append((now - started) * 1000.0)
            if outcome.selected.broker_id not in self.world.registered:
                counts.add("unregistered_selected", 1)
            for phase, duration in outcome.phases.durations().items():
                counts.add(f"phase.{phase}_s", duration)
            counts.add("phase_total_s", outcome.total_time)
        else:
            out.failed += 1
        counts.add("transmissions", outcome.transmissions)
        counts.add("responses", len(outcome.candidates))
        future.set_result(None)

    async def _closed_loop(self, client, keep_going) -> None:
        """One client, one round at a time, while ``keep_going()``."""
        while keep_going():
            future = self.loop.create_future()
            client.discover(partial(self._finished, time.perf_counter(), future))
            await future

    def run_twin(self, discoveries: int) -> None:
        self.twin, twin_counts = run_twin(self.seed, discoveries, self.tracer)
        self.counts.add("stale_targets", twin_counts["stale_targets"])
        self.counts.add("unregistered_selected", twin_counts.get("unregistered_selected", 0))

    def run_unloaded(self, seconds: float) -> None:
        """``nproc`` closed-loop clients for ``seconds`` of wall time."""
        clients = self.world.clients[: self.unloaded_clients]
        slice_s = seconds / self.UNLOADED_SLICES
        cpu0, wall0 = time.process_time(), time.perf_counter()

        async def phase() -> None:
            running = [True]
            loops = asyncio.gather(*(self._closed_loop(c, lambda: running[0]) for c in clients))
            for _ in range(self.UNLOADED_SLICES):
                self._sink = SegmentOut()
                await asyncio.sleep(slice_s)
                self._collect_unloaded(self._sink)
            self._sink = tail = SegmentOut()
            running[0] = False
            await loops
            self._collect_unloaded(tail, sliced=False)

        self._run(phase())
        self.unloaded_cpu_share = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    def _collect_unloaded(self, out: SegmentOut, sliced: bool = True) -> None:
        self.unloaded.add_totals(out)
        self.unloaded.wall_ms.extend(out.wall_ms)
        if sliced and out.wall_ms:
            self.unloaded_slices.append(sorted(out.wall_ms))

    def run_saturated(self, clock: SegmentClock, segments: int, segment_s: float) -> list[SegmentOut]:
        """Every client engine closed-loop, continuously; the window is
        cut into ``segments`` slices of ``segment_s`` wall seconds, each
        closed by a calibration spin (which stalls the loop for ~24 ms,
        outside the timed slice).  Rounds still in flight when the last
        slice closes (or finishing during a spin) are booked in
        :attr:`drained`."""
        outs: list[SegmentOut] = []
        runtime = self.runtime
        shares: list[float] = []

        async def phase() -> None:
            running = [True]
            loops = asyncio.gather(
                *(self._closed_loop(c, lambda: running[0]) for c in self.world.clients)
            )
            await asyncio.sleep(0.1)  # every engine in flight before the first slice
            for _ in range(segments):
                self._sink = out = SegmentOut()
                delivered0 = runtime.datagrams_delivered
                wall0, cpu0 = time.perf_counter(), time.process_time()
                await asyncio.sleep(segment_s)
                cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
                out.events = runtime.datagrams_delivered - delivered0
                self._sink = SegmentOut()  # rounds finishing during the spin
                clock.record(wall, cpu, {"discoveries": out.completed, "events": out.events})
                self.drained.add_totals(self._sink)
                shares.append(cpu / wall)
                outs.append(out)
            self._sink = SegmentOut()
            running[0] = False
            await loops
            self.drained.add_totals(self._sink)

        self._sink = SegmentOut()
        self._run(phase())
        self.saturated_cpu_share = sum(shares) / len(shares)
        return outs

    # -- results -----------------------------------------------------------
    def counters(self) -> Counters:
        counts = Counters(self.counts)
        runtime, world = self.runtime, self.world
        counts["datagrams"] = runtime.datagrams_sent
        counts["bytes"] = runtime.bytes_sent
        counts["datagrams_dropped"] = runtime.datagrams_dropped
        counts["handler_errors"] = len(runtime.errors) + runtime.errors_dropped
        counts["requests_disseminated"] = world.bdn.requests_disseminated
        counts["bdn_dedup_hits"] = world.bdn.dedup.hits
        counts.add("stale_targets", world.bdn.stale_targets)
        counts["leases_expired"] = world.bdn.store.leases_expired
        counts["registry_size"] = len(world.bdn.store)
        counts["requests_processed"] = sum(r.requests_processed for r in world.responders)
        counts["responder_dedup_hits"] = sum(r.dedup.hits for r in world.responders)
        counts["responder_dedup_misses"] = sum(r.dedup.misses for r in world.responders)
        return counts

    def violations(self) -> list[str]:
        counts = self.counters()
        found = []
        if counts["stale_targets"]:
            found.append(f"BDN.stale_targets = {counts['stale_targets']}")
        if counts.get("unregistered_selected", 0):
            found.append(
                f"{counts['unregistered_selected']} discoveries selected an unregistered broker"
            )
        if self.runtime.errors:
            found.append(f"AioRuntime.errors: {list(self.runtime.errors)[:3]}")
        if counts["datagrams_dropped"]:
            found.append(f"live datagrams_dropped = {counts['datagrams_dropped']}")
        return found
