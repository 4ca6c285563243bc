"""Seeded chaos schedules against the discovery protocol.

Section 7 of the paper argues the discovery scheme survives BDN
failures, broker failures and datagram loss.  The fault-tolerance tests
exercise each failure mode in isolation; this module exercises them
*combined*, the way a real deployment meets them: a seeded random
schedule of link cuts, partitions, BDN/broker kill+revive cycles and
loss storms is drawn from an explicit :class:`numpy.random.Generator`,
applied to a small discovery world, and a discovery workload runs
through the turbulence.  After every run a set of invariants is
checked:

* **Termination** -- every discovery ends with a decision or an
  explicit failure outcome; the protocol never wedges.
* **Aliveness** -- a successful run selected a broker that is alive and
  reachable from the client, unless the world changed under the run's
  feet (a kill/cut landed between the ping evidence and the decision --
  the one honest excuse, and it is only accepted for runs overlapping a
  disruption, never for the strict post-heal run).
* **No stale dissemination** -- no BDN ever picked an expired
  advertisement as an injection target (``BDN.stale_targets`` stays 0).
* **Phase consistency** -- every outcome's phase timer is closed, has
  non-negative durations, and sums to the run's total time.

Every disruption is drawn *with its recovery*: link cuts heal,
partitions dissolve, killed nodes revive, storms end.  The world is
whole again before the post-heal checks, so a green chaos run really
does mean the protocol recovered, not that the schedule was gentle.
Windows drawn on one target may overlap; the injector keeps the target
faulted while any of them is open (see :mod:`repro.discovery.faults`).
Each kind is declared once, as one ``_KINDS`` entry saying how it is
drawn and how it is armed on the :class:`FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import (
    BDNConfig,
    ClientConfig,
    Endpoint,
    ReplicationConfig,
    RetryPolicyConfig,
    ServiceConfig,
)
from repro.core.draws import uniform
from repro.core.errors import DiscoveryError
from repro.core.invariants import (
    SIM_ELECTION_EPS,
    bdn_evidence,
    election_safety,
    queue_bounds,
    stale_targets,
    zero_failed,
)
from repro.discovery.bdn import BDN, BDN_UDP_PORT
from repro.discovery.faults import FaultInjector
from repro.discovery.requester import DiscoveryClient, DiscoveryOutcome
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import drive_discovery
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss, UniformLoss
from repro.substrate.builder import BrokerNetwork, Topology

__all__ = [
    "CHAOS_KINDS",
    "STORM_KINDS",
    "REPLICATED_CHAOS_KINDS",
    "ChaosAction",
    "ChaosWorld",
    "ChaosReport",
    "draw_schedule",
    "apply_schedule",
    "run_chaos",
]

#: Disruption kinds a schedule may contain.  NOTE: the order and length
#: of this tuple feed the per-seed kind draw, so any change re-maps the
#: schedule drawn for every existing seed -- the full sweeps must be
#: re-run whenever it grows (done when the replication kinds landed).
CHAOS_KINDS = (
    "fail_link",
    "partition",
    "kill_bdn",
    "kill_broker",
    "loss_storm",
    "link_loss_storm",
    "bdn_crash_restart",
    "bdn_group_partition",
)

#: CHAOS_KINDS plus request storms against a BDN (opting into offered
#: overload stays a separate, explicit choice).
STORM_KINDS = CHAOS_KINDS + ("request_storm",)

#: The disruption pool for replicated worlds: every kind targets the
#: BDN group itself (leader kills, cold restarts that wipe a registry,
#: minority partitions), which is what the election-safety and
#: zero-outage invariants are about.
REPLICATED_CHAOS_KINDS = ("kill_bdn", "bdn_crash_restart", "bdn_group_partition")

# FaultInjector.injected log kinds (not schedule kinds: a
# bdn_crash_restart is logged as kill_bdn, a bdn_group_partition as
# partition) whose *onset* can invalidate a decision already in flight.
# They change aliveness/reachability; loss storms only delay.
_DISRUPTIVE = frozenset({"fail_link", "partition", "kill_bdn", "kill_broker"})

# Phase-sum consistency tolerance (pure float accumulation error).
_PHASE_EPS = 1e-6

# run_chaos's timeline: the window the schedule is drawn in, the quiet
# time after it for recoveries to land, and the gap between windowed
# discoveries (virtual seconds).
_FAULT_WINDOW = 20.0
_RECOVERY = 12.0
_RUN_GAP = 0.5
# Virtual seconds one discovery may take before it counts as not
# terminating (a termination-invariant violation).
_ATTEMPT_CAP = 60.0
# Actions in one drawn fault schedule.
_MIN_ACTIONS = 2
_MAX_ACTIONS = 4


@dataclass(frozen=True, slots=True)
class ChaosAction:
    """One disruption plus its implied recovery.

    ``targets`` is kind-specific: two hosts for ``fail_link`` /
    ``link_loss_storm``, one node name for the kill kinds and
    ``request_storm``, empty otherwise.  ``groups`` carries the host
    groups of a ``partition``.  ``intensity`` is the datagram drop
    probability of a loss storm, or the offered request rate (per
    second) of a ``request_storm``.
    """

    kind: str
    start: float
    duration: float
    targets: tuple[str, ...] = ()
    groups: tuple[tuple[str, ...], ...] = ()
    intensity: float = 0.0

    @property
    def end(self) -> float:
        return self.start + self.duration


class ChaosWorld:
    """The fixed discovery world chaos schedules run against.

    Four brokers in a self-healing ring (persistent links), two BDNs
    with ``injection="all"``, one client, all in one multicast realm.
    Brokers maintain leased registrations with both BDNs via heartbeats
    (2 s interval, 6 s TTL), so a dead or partitioned broker falls out
    of both stores within one lease.  The client uses short timeouts
    and ``require_ping_evidence`` so zero pongs becomes an explicit
    failure instead of a blind pick -- which is what makes the
    aliveness invariant checkable.

    ``replicated=True`` swaps the two independent BDNs for a three
    member replication group (tight timers: 2 s leases, 0.5 s leader
    heartbeats, 1 s anti-entropy), whose acks home the brokers'
    heartbeats on the leader, and the adaptive retry policy on the
    client -- the configuration the election-safety and zero-outage
    invariants run against.
    """

    N_BROKERS = 4
    N_BDNS = 2
    N_REPLICAS = 3
    HEARTBEAT_INTERVAL = 2.0
    LEASE_TTL = 6.0
    REPLICATION = dict(
        lease_duration=2.0,
        heartbeat_interval=0.5,
        election_stagger=0.25,
        anti_entropy_interval=1.0,
    )
    # Overload-variant knobs: a BDN serves ~50 msg/s, sheds discovery
    # requests above 8 queued, and the client pays for retries from a
    # refilling budget with a per-BDN breaker.
    BDN_SERVICE = ServiceConfig(queue_capacity=32, service_time=0.02)
    ADMISSION_WATERMARK = 8
    RETRY_POLICY = RetryPolicyConfig(
        budget_capacity=8,
        budget_refill_per_sec=1.0,
        backoff_base=0.25,
        backoff_cap=2.0,
        breaker_failures=3,
        breaker_cooldown=1.0,
    )

    def __init__(self, seed: int, overload: bool = False, replicated: bool = False) -> None:
        self.overload = overload
        self.replicated = replicated
        self.net = BrokerNetwork(
            seed=seed,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=NoLoss(),
        )
        self.brokers = []
        self.responders = {}
        for i in range(self.N_BROKERS):
            broker = self.net.add_broker(f"b{i}", site=f"s{i}", realm="lab")
            self.responders[broker.name] = DiscoveryResponder(broker)
            self.brokers.append(broker)
        self.net.apply_topology(Topology.RING, persistent=True)
        self.bdns = []
        n_bdns = self.N_REPLICAS if replicated else self.N_BDNS
        replication = None
        if replicated:
            replication = ReplicationConfig(
                group="g0",
                members=tuple(
                    (f"d{j}", Endpoint(f"d{j}.host", BDN_UDP_PORT)) for j in range(n_bdns)
                ),
                **self.REPLICATION,
            )
        bdn_config = BDNConfig(injection="all", ping_interval=2.0, replication=replication)
        if overload:
            bdn_config = BDNConfig(
                injection="all",
                ping_interval=2.0,
                service=self.BDN_SERVICE,
                admission_high_watermark=self.ADMISSION_WATERMARK,
                busy_retry_after=0.5,
                replication=replication,
            )
        for j in range(n_bdns):
            bdn = BDN(
                f"d{j}",
                f"d{j}.host",
                self.net.network,
                self._child_rng(),
                config=bdn_config,
                site=f"bdn-s{j}",
                realm="lab",
                obs=self.net.obs,
            )
            bdn.start()
            self.bdns.append(bdn)
        endpoints = tuple(b.udp_endpoint for b in self.bdns)
        for broker in self.brokers:
            self.responders[broker.name].attach_heartbeat(
                endpoints, interval=self.HEARTBEAT_INTERVAL, ttl=self.LEASE_TTL
            )
        self.client = DiscoveryClient(
            "c0",
            "c0.host",
            self.net.network,
            self._child_rng(),
            config=ClientConfig(
                bdn_endpoints=endpoints,
                response_timeout=1.0,
                retransmit_interval=0.5,
                max_retransmits=1,
                max_responses=self.N_BROKERS,
                target_set_size=3,
                ping_repeats=2,
                ping_timeout=0.5,
                require_ping_evidence=True,
                retry_policy=self.RETRY_POLICY if (overload or replicated) else None,
            ),
            site="client-site",
            realm="lab",
            obs=self.net.obs,
        )
        self.client.start()
        self.injector = FaultInjector(self.net.network)
        # Links, NTP, and the first heartbeat round.
        self.net.settle(8.0)

    def _child_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.net.master_rng.integers(0, 2**63))

    @property
    def sim(self):
        return self.net.sim

    def broker_hosts(self) -> list[str]:
        return [b.host for b in self.brokers]

    def all_hosts(self) -> list[str]:
        return (
            self.broker_hosts()
            + [b.host for b in self.bdns]
            + [self.client.host]
        )

    def node_by_name(self, name: str):
        for node in (*self.brokers, *self.bdns):
            if node.name == name:
                return node
        raise KeyError(name)


@dataclass(slots=True)
class ChaosReport:
    """Everything one chaos run produced."""

    seed: int
    schedule: tuple[ChaosAction, ...]
    outcomes: list[DiscoveryOutcome] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _pick(rng: np.random.Generator, items: list):
    return items[int(rng.integers(len(items)))]


def _pair(rng: np.random.Generator, hosts: list[str]) -> tuple[str, str]:
    a, b = rng.choice(len(hosts), size=2, replace=False)
    return (hosts[int(a)], hosts[int(b)])


def _bipartition(rng: np.random.Generator, world: ChaosWorld) -> dict:
    # Re-rolled until both sides are populated so the cut cuts something.
    hosts = world.all_hosts()
    while True:
        sides = rng.integers(0, 2, size=len(hosts))
        if 0 < int(sides.sum()) < len(hosts):
            break
    return {
        "groups": tuple(tuple(h for h, s in zip(hosts, sides) if s == side) for side in (0, 1))
    }


def _isolate_bdn(rng: np.random.Generator, world: ChaosWorld) -> dict:
    # A partition folds unlisted hosts into one implicit group, so the
    # two explicit groups cover every host.
    bdn = _pick(rng, world.bdns)
    rest = tuple(h for h in world.all_hosts() if h != bdn.host)
    return {"targets": (bdn.name,), "groups": ((bdn.host,), rest)}


def _arm_cut(inj: FaultInjector, world: ChaosWorld, action: ChaosAction) -> None:
    inj.fail_link(*action.targets, at=action.start)
    inj.heal_link(*action.targets, at=action.end)


def _arm_partition(inj: FaultInjector, world: ChaosWorld, action: ChaosAction) -> None:
    inj.partition(*action.groups, at=action.start)
    inj.heal(*action.groups, at=action.end)


def _arm_kill_bdn(cold: bool):
    def arm(inj: FaultInjector, world: ChaosWorld, action: ChaosAction) -> None:
        bdn = world.node_by_name(action.targets[0])
        inj.kill_bdn(bdn, at=action.start)
        inj.revive_bdn(bdn, at=action.end, cold=cold)

    return arm


def _arm_kill_broker(inj: FaultInjector, world: ChaosWorld, action: ChaosAction) -> None:
    broker = world.node_by_name(action.targets[0])
    inj.kill_broker(broker, at=action.start)
    inj.revive_broker(broker, at=action.end)


#: Every chaos kind, declared once: ``kind -> (draw, arm)``.
#: ``draw(rng, world)`` returns the action's kind-specific fields; its
#: draws follow a fixed order, so one seed keeps its schedule.
#: ``arm(injector, world, action)`` arms the onset at ``action.start``
#: before the recovery at ``action.end`` (same-instant events fire in
#: arming order).
_KINDS = {
    "fail_link": (lambda rng, w: {"targets": _pair(rng, w.broker_hosts())}, _arm_cut),
    "partition": (_bipartition, _arm_partition),
    "kill_bdn": (lambda rng, w: {"targets": (_pick(rng, w.bdns).name,)}, _arm_kill_bdn(False)),
    "kill_broker": (lambda rng, w: {"targets": (_pick(rng, w.brokers).name,)}, _arm_kill_broker),
    "loss_storm": (
        lambda rng, w: {"intensity": uniform(rng, 0.3, 0.8)},
        lambda inj, w, a: inj.loss_storm(UniformLoss(a.intensity), a.start, a.duration),
    ),
    "link_loss_storm": (
        lambda rng, w: {
            "targets": _pair(rng, w.all_hosts()),
            "intensity": uniform(rng, 0.5, 0.95),
        },
        lambda inj, w, a: inj.link_loss_storm(
            *a.targets, UniformLoss(a.intensity), a.start, a.duration
        ),
    ),
    # Kill + *cold* revive: the registry is wiped, so recovery needs
    # heartbeats (or anti-entropy catch-up) to repopulate it.
    "bdn_crash_restart": (
        lambda rng, w: {"targets": (_pick(rng, w.bdns).name,)},
        _arm_kill_bdn(True),
    ),
    "bdn_group_partition": (_isolate_bdn, _arm_partition),
    "request_storm": (
        lambda rng, w: {
            "targets": (_pick(rng, w.bdns).name,),
            "intensity": uniform(rng, 20.0, 60.0),
        },
        lambda inj, w, a: inj.request_storm(
            w.node_by_name(a.targets[0]).udp_endpoint, a.intensity, a.start, a.duration
        ),
    ),
}


def draw_schedule(
    rng: np.random.Generator,
    world: ChaosWorld,
    start: float,
    duration: float,
    kinds: tuple[str, ...] = CHAOS_KINDS,
) -> tuple[ChaosAction, ...]:
    """Draw a randomized fault schedule inside ``[start, start+duration]``:
    between :data:`_MIN_ACTIONS` and :data:`_MAX_ACTIONS` actions.

    Every action carries its own recovery time; nothing outlives the
    window.  All randomness comes from ``rng``, so one (seed, kinds)
    pair maps to one schedule.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    actions: list[ChaosAction] = []
    n = int(rng.integers(_MIN_ACTIONS, _MAX_ACTIONS + 1))
    for _ in range(n):
        kind = kinds[int(rng.integers(len(kinds)))]
        at = start + uniform(rng, 0.0, duration * 0.5)
        dur = uniform(rng, duration * 0.15, duration * 0.5)
        dur = min(dur, start + duration - at)
        draw, _arm = _KINDS[kind]
        actions.append(ChaosAction(kind, at, dur, **draw(rng, world)))
    return tuple(sorted(actions, key=lambda a: (a.start, a.kind)))


def apply_schedule(world: ChaosWorld, schedule: tuple[ChaosAction, ...]) -> None:
    """Arm every action (and its recovery) on the world's injector."""
    for action in schedule:
        _draw, arm = _KINDS[action.kind]
        arm(world.injector, world, action)


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------
def _check_phases(label: str, outcome: DiscoveryOutcome, violations: list[str]) -> None:
    timer = outcome.phases
    if timer.open_phase is not None:
        violations.append(f"{label}: phase {timer.open_phase!r} left open")
    durations = timer.durations()
    for name, value in durations.items():
        if value < 0:
            violations.append(f"{label}: phase {name!r} has negative duration {value}")
    if abs(timer.total() - outcome.total_time) > _PHASE_EPS:
        violations.append(
            f"{label}: phase sum {timer.total()} != total_time {outcome.total_time}"
        )


def _check_aliveness(
    label: str,
    world: ChaosWorld,
    outcome: DiscoveryOutcome,
    violations: list[str],
    run_started_at: float,
    strict: bool,
) -> None:
    if not outcome.success:
        return
    broker = world.node_by_name(outcome.selected.broker_id)
    alive = broker.alive
    reachable = world.net.network.reachable(world.client.host, broker.host)
    if alive and reachable:
        return
    if not strict:
        # Stale-information excuse: a kill or cut that landed *during*
        # this run can invalidate ping evidence already gathered.  The
        # protocol cannot know, so this is not a violation -- but only
        # for runs that actually overlapped a disruption onset.
        disrupted = any(
            t >= run_started_at and kind in _DISRUPTIVE
            for (t, kind, _target) in world.injector.injected
        )
        if disrupted:
            return
    violations.append(
        f"{label}: selected broker {broker.name} is "
        f"{'alive' if alive else 'dead'}/{'reachable' if reachable else 'unreachable'}"
    )


def _check_overload(world: ChaosWorld, violations: list[str]) -> None:
    """Overload variant, after every storm has ended: queue bounds at
    rest, and no circuit breaker wedged -- each is closed again or
    eligible to probe (an open breaker past its cooldown re-closes on
    the next successful attempt, so "eligible" is the recovered state).
    """
    for name, queue in bdn_evidence(world.bdns).queues.items():
        violations.extend(map(str, queue_bounds(name, queue, world.ADMISSION_WATERMARK)))
    for endpoint, breaker in world.client._breakers.items():  # noqa: SLF001
        if breaker.state != breaker.CLOSED and not breaker.available():
            violations.append(
                f"breaker for {endpoint} wedged {breaker.state} after recovery"
            )


def _check_replication(world: ChaosWorld, violations: list[str]) -> None:
    """Replicated variant, after every fault healed: election safety
    over the whole run, and post-heal convergence -- anti-entropy must
    have driven every member's registry to the same renewal of every
    live registration, named ``(broker_id, issued_at)``.
    """
    intervals = bdn_evidence(world.bdns).intervals
    violations.extend(map(str, election_safety(intervals, SIM_ELECTION_EPS)))
    now = world.sim.now
    registries = {
        bdn.name: frozenset((s.broker_id, s.advertisement.issued_at) for s in bdn.store.all(now))
        for bdn in world.bdns
    }
    union = frozenset().union(*registries.values())
    for name, renewals in registries.items():
        missing = union - renewals
        if missing:
            violations.append(
                f"convergence: {name} is missing {sorted(missing)} after heal"
            )


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
def run_chaos(
    seed: int,
    kinds: tuple[str, ...] | None = None,
    overload: bool = False,
    replicated: bool = False,
) -> ChaosReport:
    """Run one full chaos scenario for ``seed`` and check every invariant.

    The workload: one warm discovery (seeds the cached target set), a
    stream of discoveries while the drawn schedule disrupts the world,
    a strict post-heal discovery (must succeed, aliveness unexcused),
    then a targeted kill of the chosen broker followed by
    :meth:`~repro.discovery.requester.DiscoveryClient.rediscover` --
    which must reconnect through the *cached* target set, with no BDN
    round trip, onto a different live broker.

    ``kinds`` selects the disruption pool (default :data:`CHAOS_KINDS`,
    or :data:`REPLICATED_CHAOS_KINDS` when ``replicated``;
    :data:`STORM_KINDS` adds request storms); ``overload=True`` equips
    the world's BDNs with bounded queues + admission control and the
    client with the adaptive retry policy, and checks the overload
    invariants at the end.  ``replicated=True`` runs the three-member
    BDN replication group instead, where the bar is higher: *every*
    discovery attempt must succeed (the faults only ever touch a
    minority of the group, so failover must mask them completely), no
    two members may ever hold overlapping leader leases, and the
    members' registries must converge after the faults heal.
    """
    if kinds is None:
        kinds = REPLICATED_CHAOS_KINDS if replicated else CHAOS_KINDS
    world = ChaosWorld(seed, overload=overload, replicated=replicated)
    rng = np.random.default_rng(seed)
    violations: list[str] = []
    outcomes: list[DiscoveryOutcome] = []

    def attempt(label: str, begin, strict: bool = False) -> DiscoveryOutcome | None:
        started_at = world.sim.now
        try:
            outcome = drive_discovery(world.sim, begin, _ATTEMPT_CAP)
        except DiscoveryError as exc:
            violations.append(f"{label}: discovery raised instead of completing: {exc}")
            return None
        if outcome is None:
            violations.append(f"{label}: discovery did not terminate")
            return None
        outcomes.append(outcome)
        _check_phases(label, outcome, violations)
        _check_aliveness(label, world, outcome, violations, started_at, strict)
        if replicated:
            # Zero-outage invariant: the faults only ever touch a
            # minority of the replication group, so a failed discovery
            # means failover did not mask them.
            violations.extend(
                map(str, zero_failed(label, not outcome.success, "failed despite replicated BDN group"))
            )
        return outcome

    # 1. Baseline: the undisturbed world must discover successfully.
    warm = attempt("warm", world.client.discover, strict=True)
    if warm is None or not warm.success:
        violations.append("warm: baseline discovery failed")

    # 2. Draw and arm the fault schedule.
    start = world.sim.now + 1.0
    schedule = draw_schedule(rng, world, start, _FAULT_WINDOW, kinds=kinds)
    apply_schedule(world, schedule)

    # 3. Discovery workload through the turbulence.  Failures are
    #    legitimate here (the client may be cut off entirely); wedging
    #    and invariant breaches are not.
    window_end = start + _FAULT_WINDOW
    while world.sim.now < window_end:
        attempt("windowed", world.client.discover)
        world.sim.run_for(_RUN_GAP)

    # 4. Let recoveries land: leases renew within one heartbeat, rings
    #    re-link within one retry interval.
    world.sim.run_for(_RECOVERY)
    final = attempt("final", world.client.discover, strict=True)
    if final is None or not final.success:
        violations.append("final: post-heal discovery failed")

    # 5. Kill the chosen broker; the client must reconnect through its
    #    cached target set without a fresh BDN round trip.
    if final is not None and final.success:
        chosen = world.node_by_name(final.selected.broker_id)
        world.injector.kill_broker(chosen)
        world.sim.run_for(0.5)
        reconnect = attempt("reconnect", world.client.rediscover)
        if reconnect is not None:
            if reconnect.via != "cached":
                violations.append(
                    f"reconnect: via={reconnect.via!r}, expected 'cached'"
                )
            if not reconnect.success:
                violations.append("reconnect: cached-target rediscovery failed")
            elif reconnect.selected.broker_id == chosen.name:
                violations.append("reconnect: re-selected the killed broker")
        world.injector.revive_broker(chosen)

    # 6. Store-level invariant: expired advertisements never disseminated.
    for name, count in bdn_evidence(world.bdns).stale_targets.items():
        violations.extend(map(str, stale_targets(name, count)))

    # 7. Overload invariants: bounded queues drained, breakers not wedged.
    if overload:
        _check_overload(world, violations)

    # 8. Replication invariants: election safety over the whole run,
    #    registry convergence now that every fault has healed.
    if replicated:
        _check_replication(world, violations)

    return ChaosReport(seed=seed, schedule=schedule, outcomes=outcomes, violations=violations)
