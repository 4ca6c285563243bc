"""The four simulated workloads.

Each workload is a class with the same small surface the runner drives:

``setup()``
    Build the world, let it settle, warm it up.  Timed as set-up.
``prepare(i)``
    Build whatever segment ``i`` alone runs in.  Not timed.
``segment(i)``
    Run segment ``i`` (a fixed amount of work) and return a
    :class:`SegmentOut`.  Timed by the runner, bracketed by calibration
    spins.
``counters()``
    Exact public counters accumulated so far (the ``count`` metrics).
``violations()``
    Correctness checks that failed (empty list = correct).

Sizes are fixed per workload and shrink with ``scale`` (the smoke
profile); shapes never change.  ``seed`` reaches only the input
generators: world seeds, arrival schedules, churn draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import BDNConfig
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.chaos import ChaosWorld
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.runtime.api import as_runtime
from repro.simnet.latency import MatrixLatencyModel, UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.substrate.builder import BrokerNetwork

from .loadgen import LeanBrokerFleet, LeanRequesters

__all__ = [
    "SegmentOut",
    "Counters",
    "SimStar",
    "SimFlashCrowd",
    "SimRegistryChurn",
    "SimReplicated",
    "SIM_WORKLOADS",
    "drive_closed_loop",
]

#: Virtual seconds a single discovery may take before the loop gives up.
_DISCOVERY_CAP = 120.0


@dataclass(slots=True)
class SegmentOut:
    """What one segment did."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    events: int = 0
    #: Virtual ms, request -> decision (-> first response for lean clients).
    sim_ms: list[float] = field(default_factory=list)
    #: Raw host ms, issue -> outcome.
    wall_ms: list[float] = field(default_factory=list)

    def add_totals(self, other: "SegmentOut | None") -> None:
        """Fold ``other``'s attempted / completed / failed into this one."""
        if other is not None:
            self.attempted += other.attempted
            self.completed += other.completed
            self.failed += other.failed


class Counters(dict):
    """Accumulating ``name -> number`` map."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        if value > self.get(name, 0):
            self[name] = value


def drive_closed_loop(client, sim, n: int, gap: float, out: SegmentOut, counts: Counters, registered) -> None:
    """``n`` sequential discoveries on ``client``, ``gap`` virtual s apart.

    Records virtual and host latency per discovery, requester-side
    counters, the paper's five phase durations, and checks that the
    selected broker is one of ``registered``.
    """
    box: list = []
    for _ in range(n):
        box.clear()
        counts.peak("timers_pending_peak", sim.pending)
        t0 = time.perf_counter()
        client.discover(box.append)
        cap = sim.now + _DISCOVERY_CAP
        while not box:
            if not sim.step() or sim.now > cap:
                raise RuntimeError("discovery did not complete (protocol wedged)")
        wall = time.perf_counter() - t0
        outcome = box[0]
        out.attempted += 1
        if outcome.success:
            out.completed += 1
            out.sim_ms.append(outcome.total_time * 1000.0)
            out.wall_ms.append(wall * 1000.0)
            if outcome.selected.broker_id not in registered:
                counts.add("unregistered_selected", 1)
            for phase, duration in outcome.phases.durations().items():
                counts.add(f"phase.{phase}_s", duration)
            counts.add("phase_total_s", outcome.total_time)
        else:
            out.failed += 1
        counts.add("transmissions", outcome.transmissions)
        counts.add("responses", len(outcome.candidates))
        sim.run_for(gap)


def _add_world_counts(counts: Counters, sim, network, bdns, responders, base: dict) -> None:
    """Fold one sim world's public counters (minus their post-set-up
    ``base`` snapshot) into ``counts``."""
    snap = _snapshot(sim, network, bdns, responders)
    for name, value in snap.items():
        counts.add(name, value - base.get(name, 0))
    counts["registry_size"] = sum(len(b.store) for b in bdns)
    counts.peak("timers_pending_peak", sim.pending)


def _snapshot(sim, network, bdns, responders) -> dict[str, float]:
    snap = {
        "events": sim.events_processed,
        "compactions": sim.compactions,
        "datagrams": network.datagrams_sent,
        "bytes": network.bytes_sent,
        "datagrams_dropped": network.datagrams_dropped,
        "requests_disseminated": sum(b.requests_disseminated for b in bdns),
        "bdn_dedup_hits": sum(b.dedup.hits for b in bdns),
        "stale_targets": sum(b.stale_targets for b in bdns),
        "leases_expired": sum(b.store.leases_expired for b in bdns),
        "requests_processed": sum(r.requests_processed for r in responders),
        "responder_dedup_hits": sum(r.dedup.hits for r in responders),
        "responder_dedup_misses": sum(r.dedup.misses for r in responders),
    }
    for bdn in bdns:
        rep = bdn.replication
        if rep is not None:
            snap["appends"] = snap.get("appends", 0) + rep.appends_sent
            snap["repair_ads_sent"] = snap.get("repair_ads_sent", 0) + rep.repair_ads_sent
            snap["elections"] = snap.get("elections", 0) + rep.elections_started
    return snap


class _SimWorkload:
    """Shared plumbing: seed/scale/tracer, counters, violations."""

    name = ""
    #: Failed discoveries tolerated, as a share of those attempted.
    max_failed_share = 0.0

    def __init__(self, seed: int, scale: float = 1.0, tracer=None) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.counts = Counters()

    def _size(self, full: int, floor: int) -> int:
        return max(floor, int(round(full * min(1.0, self.scale))))

    def _runtime(self, network):
        runtime = as_runtime(network)
        return self.tracer.wrap_runtime(runtime) if self.tracer is not None else runtime

    def counters(self) -> Counters:
        return Counters(self.counts)

    def violations(self) -> list[str]:
        counts = self.counters()
        found = []
        if counts.get("stale_targets", 0):
            found.append(f"BDN.stale_targets = {counts['stale_targets']}")
        if counts.get("unregistered_selected", 0):
            found.append(
                f"{counts['unregistered_selected']} discoveries selected an unregistered broker"
            )
        return found

    def prepare(self, index: int) -> None:
        """Build what segment ``index`` alone needs (untimed)."""

    def drain(self) -> SegmentOut | None:
        """Let in-flight work finish after the last segment (untimed)."""
        return None

    def exact_latencies_ms(self, outs: list[SegmentOut], segments: int) -> list[float]:
        """Virtual latencies of the first ``segments`` segments: a set
        that does not depend on when the run stopped."""
        return [ms for out in outs[:segments] for ms in out.sim_ms]

    def close(self) -> None:
        pass


class SimStar(_SimWorkload):
    """Paper Figure 8/9: five WAN brokers in a star, one full client.

    Sequential discoveries (closed loop of 1, 0.5 virtual s apart) on
    ``DiscoveryScenario(ScenarioSpec.star(...))``: Table-1 latencies,
    0.1 % per-hop loss, retransmits and the 4.5 s collection window
    included.  A segment is :attr:`worlds` fresh worlds, built in
    :meth:`prepare`, with :attr:`PER_WORLD` discoveries in each; a
    world's seed derives from the benchmark seed and the world's index.
    The Table-1 world is bimodal in which brokers make the target set
    (the NTP residuals a seed draws decide), so one world's median
    latency sits ~6 % from another's; pooling 200 worlds is what makes
    the virtual percentiles comparable across seeds.
    """

    name = "sim_star"
    # 0.1 % per-hop loss, and the client retransmits: no round failed in
    # any recorded run.  The ceiling lets a seed lose one round in a
    # thousand to bad luck; a rise in failures beyond that is a defect.
    max_failed_share = 0.001
    PER_WORLD = 25

    def __init__(self, seed: int, scale: float = 1.0, tracer=None) -> None:
        super().__init__(seed, scale, tracer)
        self.worlds = self._size(20, 2)
        self._ready: list[tuple[DiscoveryScenario, dict, frozenset[str]]] = []

    def _build(self, world: int):
        scenario = DiscoveryScenario(ScenarioSpec.star(seed=self.seed * 1_000_000 + world))
        base = _snapshot(
            scenario.net.sim, scenario.net.network, [scenario.bdn],
            list(scenario.responders.values()),
        )
        return scenario, base, frozenset(scenario.bdn.store.broker_ids())

    def setup(self) -> None:
        scenario, _, registered = self._build(0)
        drive_closed_loop(
            scenario.client, scenario.net.sim, 5, 0.5, SegmentOut(), Counters(), registered
        )

    def prepare(self, index: int) -> None:
        first = index * self.worlds
        self._ready = [self._build(first + k) for k in range(self.worlds)]

    def segment(self, index: int) -> SegmentOut:
        out = SegmentOut()
        for scenario, base, registered in self._ready:
            sim = scenario.net.sim
            drive_closed_loop(
                scenario.client, sim, self.PER_WORLD, 0.5, out, self.counts, registered
            )
            _add_world_counts(
                self.counts, sim, scenario.net.network, [scenario.bdn],
                list(scenario.responders.values()), base,
            )
            out.events += sim.events_processed - base["events"]
        self._ready = []
        return out


class SimReplicated(_SimWorkload):
    """``ChaosWorld(seed, replicated=True)``: the replicated control plane.

    A 3-member BDN group (lease heartbeats, quorum appends, 1 s
    anti-entropy), group heartbeats on 4 ring-linked brokers, an
    adaptive-retry client.  Sequential discoveries 0.25 virtual s
    apart in one long-lived world, so the control plane's steady-state
    ticking between rounds is inside the number.
    """

    name = "sim_replicated"

    def __init__(self, seed: int, scale: float = 1.0, tracer=None) -> None:
        super().__init__(seed, scale, tracer)
        self.per_segment = self._size(320, 20)
        self.world: ChaosWorld | None = None
        self._last: dict[str, float] = {}

    def setup(self) -> None:
        self.world = world = ChaosWorld(self.seed, replicated=True)
        self._responders = list(world.responders.values())
        self._registered = frozenset(b.name for b in world.brokers)
        drive_closed_loop(
            world.client, world.sim, 5, 0.25, SegmentOut(), Counters(), self._registered
        )
        self._last = _snapshot(world.sim, world.net.network, world.bdns, self._responders)
        self._writes_base = world.net.tracer.count("bdn_registered")

    def segment(self, index: int) -> SegmentOut:
        world = self.world
        out = SegmentOut()
        drive_closed_loop(
            world.client, world.sim, self.per_segment, 0.25, out, self.counts, self._registered
        )
        base = self._last
        _add_world_counts(
            self.counts, world.sim, world.net.network, world.bdns, self._responders, base
        )
        self._last = _snapshot(world.sim, world.net.network, world.bdns, self._responders)
        out.events = self._last["events"] - base["events"]
        writes = world.net.tracer.count("bdn_registered")
        self.counts.add("registry_writes", writes - self._writes_base)
        self._writes_base = writes
        return out


class _OpenLoopWorkload(_SimWorkload):
    """Lean requesters arriving open-loop at one sharded BDN.

    Segment ``i`` covers the ``i``-th :attr:`SEGMENT_S` virtual seconds
    after ``t0``.  Arrivals are armed :attr:`LOOKAHEAD_S` virtual seconds
    ahead, so a standing population of pending arrival timers (plus each
    requester's armed-then-cancelled timeout) sits in the scheduler
    throughout, as in a real flash crowd.
    Sockets of a segment are released two segments later.
    """

    LOOKAHEAD_S = 10.0
    SEGMENT_S = 1.0
    rate = 0  # arrivals per virtual second (full scale)
    timeout = 30.0

    def _init_open_loop(self, sim, runtime, bdn: BDN, hosts: list[str]) -> None:
        self.sim = sim
        self.bdn = bdn
        self.requesters = LeanRequesters(runtime, bdn.udp_endpoint, hosts, self.timeout)
        self.per_segment = self._size(int(self.rate * self.SEGMENT_S), 20)
        self._arrival_rng = np.random.default_rng([self.seed, 0xA221])
        self.t0 = sim.now + 0.5
        self._armed = 0
        self._seen = 0
        for _ in range(int(self.LOOKAHEAD_S / self.SEGMENT_S)):
            self._arm_next()

    def _arm_next(self) -> None:
        i = self._armed
        self._armed = i + 1
        start = self.t0 + i * self.SEGMENT_S
        arrivals = np.sort(self._arrival_rng.uniform(0.0, self.SEGMENT_S, size=self.per_segment))
        self.requesters.arm(i, start + arrivals)

    def _run_window(self, index: int) -> SegmentOut:
        req = self.requesters
        issued0, failed0 = req.issued, req.failed
        events0 = self.sim.events_processed
        wall0 = time.perf_counter()
        self._arm_next()
        self.counts.peak("timers_pending_peak", self.sim.pending)
        self.sim.run(until=self.t0 + (index + 1) * self.SEGMENT_S)
        if index >= 2:
            req.release(index - 2)
        return self._collect(issued0, failed0, events0, wall0)

    def _collect(self, issued0: int, failed0: int, events0: int, wall0: float) -> SegmentOut:
        """What happened since the counters given.  Host latencies only
        of requests sent after ``wall0``: one in flight when the segment
        began sat through the calibration spin between segments."""
        req = self.requesters
        fresh = req.latencies[self._seen :]
        self._seen = len(req.latencies)
        return SegmentOut(
            attempted=req.issued - issued0,
            completed=len(fresh),
            failed=req.failed - failed0,
            events=self.sim.events_processed - events0,
            sim_ms=[lat * 1000.0 for _, lat, _, _ in fresh],
            wall_ms=[wall * 1000.0 for _, _, sent, wall in fresh if sent >= wall0],
        )

    def exact_latencies_ms(self, outs: list[SegmentOut], segments: int) -> list[float]:
        """Requesters *armed for* the first ``segments`` segments, whenever
        their responses arrived."""
        limit = segments * self.per_segment
        return [lat * 1000.0 for j, lat, _, _ in self.requesters.latencies if j < limit]

    def drain(self) -> SegmentOut:
        """Cancel arrivals not yet due, let in-flight requests finish;
        whatever is still unanswered after 2 virtual s counts as failed."""
        req = self.requesters
        issued0, failed0 = req.issued, req.failed
        req.cancel_unfired()
        self.sim.run(until=self.sim.now + 2.0)
        out = self._collect(issued0, failed0, self.sim.events_processed, time.perf_counter())
        out.failed += req.issued - req.completed - req.failed
        return out


class SimFlashCrowd(_OpenLoopWorkload):
    """2 000 lean requesters per virtual second at a 16-shard BDN.

    Eight responder brokers, no links, no loss (the ``bench_mega``
    shape).  Scheduler, sim fabric and responder dominate; the
    requester engine is bypassed and the registry holds 8 ads, so the
    BDN lookup is cheap.
    """

    name = "sim_flash_crowd"
    rate = 2000
    SEGMENT_S = 0.5
    N_BROKERS = 8
    N_HOSTS = 64

    def setup(self) -> None:
        net = BrokerNetwork(
            seed=self.seed,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=NoLoss(),
        )
        self.net = net
        self.responders = []
        for i in range(self.N_BROKERS):
            broker = net.add_broker(f"b{i}", site=f"site{i % 4}")
            self.responders.append(DiscoveryResponder(broker))
        bdn = BDN(
            "bdn0",
            "bdn0.mega",
            net.network,
            np.random.default_rng([self.seed, 1]),
            config=BDNConfig(injection="closest_farthest", shards=16),
            site="site0",
        )
        bdn.start()
        for broker in net.broker_list():
            advertise_direct(broker, bdn.udp_endpoint)
        net.settle(8.0)
        hosts = [f"ch{i}.mega" for i in range(self.N_HOSTS)]
        for i, host in enumerate(hosts):
            net.network.register_host(host, site=f"site{i % 4}")
        self._init_open_loop(net.sim, self._runtime(net.network), bdn, hosts)
        self._base = _snapshot(net.sim, net.network, [bdn], self.responders)

    def segment(self, index: int) -> SegmentOut:
        return self._run_window(index)

    def counters(self) -> Counters:
        counts = Counters({"timers_pending_peak": self.counts.get("timers_pending_peak", 0)})
        _add_world_counts(
            counts, self.sim, self.net.network, [self.bdn], self.responders, self._base
        )
        return counts


class SimRegistryChurn(_OpenLoopWorkload):
    """Writes beside reads on a 2 000-broker registry.

    A 16-shard ``closest_farthest`` BDN holds ~1 800 leased
    advertisements from a :class:`LeanBrokerFleet` under churn while 100
    discovery requests per virtual second arrive open-loop.  Every
    request makes the BDN read the whole registry (``store.all(now)``
    and the closest/farthest sort in ``_injection_targets``); every
    join and lease expiry invalidates a shard's sorted-id cache.  A
    read-side cache that costs writes shows here and nowhere else.
    """

    name = "sim_registry_churn"
    rate = 100
    timeout = 10.0
    N_BROKERS = 2000
    N_HOSTS = 16
    SITES = ("bdn", "near", "mid", "far", "clients")
    # One-way ms between sites: the anchors' sites are strictly the
    # nearest to and the farthest from the BDN, whatever jitter draws.
    ONE_WAY_MS = (
        (0.2, 2.0, 10.0, 40.0, 8.0),
        (2.0, 0.2, 10.0, 40.0, 8.0),
        (10.0, 10.0, 0.2, 40.0, 8.0),
        (40.0, 40.0, 40.0, 0.2, 40.0),
        (8.0, 8.0, 8.0, 40.0, 0.2),
    )

    def setup(self) -> None:
        net = BrokerNetwork(
            seed=self.seed,
            latency=MatrixLatencyModel(self.SITES, np.array(self.ONE_WAY_MS), jitter_sigma=0.02),
            loss=NoLoss(),
        )
        self.net = net
        runtime = self._runtime(net.network)
        bdn = BDN(
            "bdn0",
            "bdn0.churn",
            net.network,
            np.random.default_rng([self.seed, 1]),
            config=BDNConfig(injection="closest_farthest", shards=16, ping_interval=5.0),
            site="bdn",
        )
        bdn.start()
        n = self._size(self.N_BROKERS, 40)
        self.fleet = LeanBrokerFleet(
            runtime,
            bdn.udp_endpoint,
            n,
            lambda i: ("near", "far")[i] if i < 2 else "mid",
            np.random.default_rng([self.seed, 2]),
        )
        hosts = [f"ch{i}.churn" for i in range(self.N_HOSTS)]
        for host in hosts:
            net.network.register_host(host, site="clients")
        # One full ping sweep so every registered broker has an RTT and
        # the closest/farthest choice is settled before measuring.
        net.settle(6.0)
        self._init_open_loop(net.sim, runtime, bdn, hosts)
        self._base = _snapshot(net.sim, net.network, [bdn], [])

    def segment(self, index: int) -> SegmentOut:
        return self._run_window(index)

    def counters(self) -> Counters:
        counts = Counters({"timers_pending_peak": self.counts.get("timers_pending_peak", 0)})
        _add_world_counts(counts, self.sim, self.net.network, [self.bdn], [], self._base)
        counts["churn_flips"] = self.fleet.flips
        counts["alive_brokers"] = self.fleet.alive_count
        return counts

    def violations(self) -> list[str]:
        found = super().violations()
        anchors = {b.broker_id for b in self.fleet.brokers[:2]}
        if self.fleet.requests_answered and not anchors <= set(self.bdn.store.broker_ids()):
            found.append("an anchor broker fell out of the registry")
        return found


SIM_WORKLOADS = {
    cls.name: cls for cls in (SimStar, SimFlashCrowd, SimRegistryChurn, SimReplicated)
}
