"""The cluster deployment plan: who runs where, on which real ports.

A :class:`ClusterSpec` is the single JSON document every process in a
live cluster run agrees on.  The coordinator builds one, assigns a real
loopback port to every symbolic endpoint (:meth:`ClusterSpec.assign_ports`),
and hands the spec file to each worker process, which uses it to:

* register every cluster host with its :class:`~repro.runtime.aio.AioRuntime`
  (so realm lookups work for traffic from peers it has never met),
* pre-seed the symbolic->real endpoint map for all *remote* endpoints,
* bind its *own* endpoints on exactly the planned ports (``port_plan``),
* build node configs identical across processes (replication membership,
  retry policy, admission control) -- the same shape the sim-side chaos
  worlds use, with the same tight timers, so sim-vs-cluster comparisons
  compare protocol behaviour rather than configuration drift.

Naming follows the chaos worlds: BDN replicas ``d0..``, brokers
``b0..``, clients ``c0..``, one shared realm ``"lab"``.
"""

from __future__ import annotations

import json
import socket
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.config import (
    BDNConfig,
    ClientConfig,
    Endpoint,
    ReplicationConfig,
    ServiceConfig,
)
from repro.discovery.bdn import BDN_UDP_PORT
from repro.discovery.chaos import ChaosWorld
from repro.discovery.requester import CLIENT_UDP_PORT
from repro.substrate.broker import BROKER_LINK_PORT, BROKER_TCP_PORT, BROKER_UDP_PORT

__all__ = ["ClusterSpec", "derive_schedule"]


def derive_schedule(seed: int, rounds: int, mean_gap: float) -> list[float]:
    """Seeded inter-discovery gaps (seconds) for one load-generator client.

    Exponential gaps -- the same memoryless arrival shape the sim chaos
    request storms use -- drawn from a dedicated generator so the
    schedule is a pure function of ``(seed, rounds, mean_gap)``: the sim
    side and the cluster side of a comparison replay identical offered
    load.
    """
    rng = np.random.default_rng(seed)
    return [float(g) for g in rng.exponential(mean_gap, rounds)]


@dataclass
class ClusterSpec:
    """Everything a worker needs to join the cluster, JSON-serialisable."""

    n_bdns: int = 3
    n_brokers: int = 4
    n_clients: int = 2
    seed: int = 7
    bind_ip: str = "127.0.0.1"
    #: Load schedule: each client replays ``rounds`` discoveries with
    #: seeded exponential gaps of mean ``mean_gap`` seconds.
    rounds: int = 20
    mean_gap: float = 0.15
    #: Broker registration lease: renewed every ``broker_heartbeat``,
    #: expiring after ``broker_lease_ttl`` (3 intervals = two misses).
    broker_heartbeat: float = 1.0
    broker_lease_ttl: float = 3.0
    #: Overload layer (PR 3) knobs, live-speed service time.
    queue_capacity: int = 32
    service_time: float = 0.002
    admission_watermark: int = 8
    #: Soak invariant bounds.
    p99_bound: float = 3.0
    drain_deadline: float = 5.0
    #: Live telemetry plane (see ``repro.obs.live``): workers stream
    #: delta-encoded telemetry frames on the control channel every
    #: ``telemetry_interval`` seconds; 0 disables streaming entirely.
    telemetry_interval: float = 1.0
    #: SLO monitor evaluation window (wall-clock seconds) and the
    #: fraction of windows allowed to breach the p99 bound before the
    #: latency error budget is exhausted.
    slo_window: float = 5.0
    slo_latency_budget: float = 0.25
    #: Overload protection master switch.  ``False`` zeroes the BDN
    #: admission watermark -- the violation-injection drill the SLO
    #: monitor's queue-overflow invariant is meant to catch live.
    admission_control: bool = True
    #: Continuous profiling: stack-sampling rate in Hz (0 = profiler
    #: never constructed) for the roles whose kind is in
    #: ``profile_roles`` (``load`` | ``bdn`` | ``broker``).
    profile_rate: float = 0.0
    profile_roles: tuple = ("load",)
    #: Symbolic ``"host:port"`` -> real OS port, filled by
    #: :meth:`assign_ports` on the coordinator.
    ports: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # JSON has no tuples: normalise so load(save(spec)) == spec.
        self.profile_roles = tuple(self.profile_roles)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def bdn_name(self, j: int) -> str:
        return f"d{j}"

    def bdn_host(self, j: int) -> str:
        return f"d{j}.host"

    def bdn_endpoint(self, j: int) -> Endpoint:
        return Endpoint(self.bdn_host(j), BDN_UDP_PORT)

    def bdn_endpoints(self) -> tuple[Endpoint, ...]:
        return tuple(self.bdn_endpoint(j) for j in range(self.n_bdns))

    def broker_name(self, i: int) -> str:
        return f"b{i}"

    def broker_host(self, i: int) -> str:
        return f"b{i}.local"

    def client_name(self, k: int) -> str:
        return f"c{k}"

    def client_host(self, k: int) -> str:
        return f"c{k}.host"

    def roles(self) -> list[str]:
        """Every worker process role, spawn order: BDNs, brokers, load."""
        return (
            [f"bdn:{j}" for j in range(self.n_bdns)]
            + [f"broker:{i}" for i in range(self.n_brokers)]
            + ["load"]
        )

    # ------------------------------------------------------------------
    # Endpoints and ports
    # ------------------------------------------------------------------
    def endpoints_of(self, role: str) -> list[Endpoint]:
        """The endpoints a role binds itself (its ``port_plan`` keys)."""
        kind, _, index_text = role.partition(":")
        if kind == "bdn":
            return [self.bdn_endpoint(int(index_text))]
        if kind == "broker":
            host = self.broker_host(int(index_text))
            return [
                Endpoint(host, BROKER_UDP_PORT),
                Endpoint(host, BROKER_TCP_PORT),
                Endpoint(host, BROKER_LINK_PORT),
            ]
        if kind == "load":
            return [
                Endpoint(self.client_host(k), CLIENT_UDP_PORT)
                for k in range(self.n_clients)
            ]
        raise ValueError(f"unknown role {role!r}")

    def all_endpoints(self) -> list[Endpoint]:
        out: list[Endpoint] = []
        for role in self.roles():
            out.extend(self.endpoints_of(role))
        return out

    def assign_ports(self) -> None:
        """Allocate one free OS port per endpoint (coordinator side).

        All probe sockets stay open until every port is read, so no two
        endpoints are handed the same port.  The usual bind-0 caveat
        applies: a port can in principle be grabbed by an unrelated
        process between release and worker bind; on a CI loopback that
        window is milliseconds and workers fail loudly if it happens.
        """
        probes = []
        try:
            for endpoint in self.all_endpoints():
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind((self.bind_ip, 0))
                self.ports[str(endpoint)] = probe.getsockname()[1]
                probes.append(probe)
        finally:
            for probe in probes:
                probe.close()

    def real_port(self, endpoint: Endpoint) -> int:
        return self.ports[str(endpoint)]

    def port_plan(self, role: str) -> dict[Endpoint, int]:
        """``AioRuntime(port_plan=...)`` for one worker's own endpoints."""
        return {ep: self.real_port(ep) for ep in self.endpoints_of(role)}

    def apply_mappings(self, runtime) -> None:
        """Pre-seed every cluster endpoint's real address into a runtime.

        A worker's own endpoints are re-mapped identically when they
        bind; everything else is how datagrams to processes this worker
        has never spoken to resolve.
        """
        for endpoint in self.all_endpoints():
            runtime.map_endpoint(endpoint, self.bind_ip, self.real_port(endpoint))

    def register_hosts(self, runtime) -> None:
        """Register every cluster host (one shared realm, per-tier sites)."""
        for j in range(self.n_bdns):
            runtime.register_host(self.bdn_host(j), f"bdn-s{j}", realm="lab")
        for i in range(self.n_brokers):
            runtime.register_host(self.broker_host(i), f"s{i}", realm="lab")
        for k in range(self.n_clients):
            runtime.register_host(self.client_host(k), "client-site", realm="lab")

    # ------------------------------------------------------------------
    # Node configs (mirroring the sim chaos worlds)
    # ------------------------------------------------------------------
    def replication_config(self) -> ReplicationConfig:
        return ReplicationConfig(
            group="g0",
            members=tuple(
                (self.bdn_name(j), self.bdn_endpoint(j)) for j in range(self.n_bdns)
            ),
            **ChaosWorld.REPLICATION,  # the sim chaos world's tight timers
        )

    def bdn_config(self) -> BDNConfig:
        return BDNConfig(
            injection="all",
            ping_interval=2.0,
            service=ServiceConfig(
                queue_capacity=self.queue_capacity, service_time=self.service_time
            ),
            admission_high_watermark=(
                self.admission_watermark if self.admission_control else 0
            ),
            busy_retry_after=0.5,
            replication=self.replication_config() if self.n_bdns > 1 else None,
        )

    def slo_config(self):
        """The live :class:`~repro.obs.slo.SloConfig` this spec implies."""
        from repro.obs.slo import SloConfig

        return SloConfig(
            window=self.slo_window,
            queue_capacity=self.queue_capacity,
            p99_bound=self.p99_bound,
            latency_budget=self.slo_latency_budget,
        )

    def profiled(self, role: str) -> bool:
        """Whether ``role`` runs the opt-in sampling profiler."""
        return self.profile_rate > 0 and role.partition(":")[0] in self.profile_roles

    def client_config(self) -> ClientConfig:
        return ClientConfig(
            bdn_endpoints=self.bdn_endpoints(),
            response_timeout=1.0,
            retransmit_interval=0.5,
            max_retransmits=1,
            max_responses=self.n_brokers,
            target_set_size=min(3, self.n_brokers),
            ping_repeats=2,
            ping_timeout=0.5,
            require_ping_evidence=True,
            retry_policy=ChaosWorld.RETRY_POLICY,
            # The aio runtime emulates multicast per-process; across
            # processes it cannot reach anyone, so the fallback is off.
            use_multicast_fallback=False,
        )

    def client_schedule(self, k: int) -> list[float]:
        """Client ``k``'s seeded gap schedule (disjoint substreams)."""
        return derive_schedule(self.seed * 1009 + k, self.rounds, self.mean_gap)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> ClusterSpec:
        return cls(**json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> ClusterSpec:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())
