"""The benchmark's own load generators (traced as ``bench.loadgen``).

Two lean node kinds, both speaking only the public
:class:`repro.runtime.api.Runtime` surface so the tracer's runtime proxy
sees their sends, timers and handlers like any engine's:

* :class:`LeanRequesters` -- one-socket, one-shot discovery requesters
  arriving open-loop on a schedule drawn from the benchmark seed.  A
  requester fires one ``DiscoveryRequest`` at the BDN, arms a timeout and
  completes on the first ``DiscoveryResponse``.  It is the ``bench_mega``
  client shape re-implemented here (roundbench imports nothing from
  ``benchmarks/bench_mega.py``).
* :class:`LeanBrokerFleet` -- brokers reduced to what a BDN can see of
  them: they answer pings, answer injected discovery requests, and
  heartbeat a leased advertisement.  A seeded churn process flips them
  alive/dead so leases lapse and the registry's key set keeps changing.

Their cost is the generator's, not the program's; the traced pass
reports it as ``bench.loadgen`` so it is never mistaken for either.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import Endpoint
from repro.core.messages import (
    BrokerAdvertisement,
    DiscoveryRequest,
    DiscoveryResponse,
    PingRequest,
    PingResponse,
)
from repro.core.metrics import UsageMetrics
from repro.substrate.broker import BROKER_TCP_PORT, BROKER_UDP_PORT

__all__ = ["LeanRequesters", "LeanBrokerFleet"]

_BASE_PORT = 20_000
_PORTS_PER_HOST = 40_000

# The churned fleet: a 3x-interval lease renewed every 5 virtual s; on
# every churn tick a live broker dies with DIE_P and a dead one revives
# with REVIVE_P (about 1 % of the fleet flips per tick, 80 % is alive in
# the stationary state).
HEARTBEAT_INTERVAL = 5.0
LEASE_TTL = 3.0 * HEARTBEAT_INTERVAL
CHURN_INTERVAL = 0.5
DIE_P = 0.005
REVIVE_P = 0.02


class LeanRequesters:
    """Open-loop one-shot requesters against one BDN endpoint.

    Parameters
    ----------
    runtime:
        The (possibly tracing) runtime every send and timer goes through.
    bdn_endpoint:
        Where requests are sent.
    hosts:
        Registered client hosts; requester ``j`` lives on
        ``hosts[j % len(hosts)]`` with its own port.
    timeout:
        Virtual seconds before an unanswered request counts as failed.
    """

    def __init__(self, runtime, bdn_endpoint: Endpoint, hosts: list[str], timeout: float) -> None:
        self.runtime = runtime
        self.bdn_endpoint = bdn_endpoint
        self.hosts = hosts
        self.timeout = timeout
        self.issued = 0
        self.completed = 0
        self.failed = 0
        #: (requester index, virtual latency s, host send time, host
        #: latency s) per completion.
        self.latencies: list[tuple[int, float, float, float]] = []
        self._next_index = 0
        self._batches: dict[int, list[tuple[Endpoint, object]]] = {}

    def arm(self, batch: int, arrival_times) -> None:
        """Create one requester per absolute arrival time; remember the
        batch so :meth:`release` can unbind its sockets later."""
        members = self._batches.setdefault(batch, [])
        for at in arrival_times:
            members.append(self._arm_one(float(at)))

    def release(self, batch: int) -> None:
        """Unbind every socket of a finished batch (bounds memory)."""
        for endpoint, _ in self._batches.pop(batch, ()):
            self.runtime.unbind_udp(endpoint)

    def cancel_unfired(self) -> None:
        """Cancel every arrival timer still pending (end of the run)."""
        for members in self._batches.values():
            for _, arrival in members:
                arrival.cancel()

    def _arm_one(self, at: float) -> tuple[Endpoint, object]:
        j = self._next_index
        self._next_index = j + 1
        runtime = self.runtime
        n_hosts = len(self.hosts)
        endpoint = Endpoint(
            self.hosts[j % n_hosts], _BASE_PORT + (j // n_hosts) % _PORTS_PER_HOST
        )
        state = [None, 0.0, 0.0]  # timeout handle, virtual send time, host send time

        def on_udp(message, src) -> None:
            if type(message) is not DiscoveryResponse:
                return
            timer = state[0]
            if timer is None:
                return  # duplicate response after the first
            state[0] = None
            timer.cancel()
            self.completed += 1
            self.latencies.append(
                (j, runtime.now - state[1], state[2], time.perf_counter() - state[2])
            )

        def on_timeout() -> None:
            state[0] = None
            self.failed += 1

        def join() -> None:
            self.issued += 1
            state[1] = runtime.now
            state[2] = time.perf_counter()
            runtime.send_udp(
                endpoint,
                self.bdn_endpoint,
                DiscoveryRequest(
                    uuid=f"lean-{j:08d}",
                    requester_host=endpoint.host,
                    requester_port=endpoint.port,
                    transports=("udp",),
                    issued_at=runtime.now,
                ),
            )
            state[0] = runtime.schedule(self.timeout, on_timeout)

        runtime.bind_udp(endpoint, on_udp)
        return endpoint, runtime.schedule_at(at, join)


class _LeanBroker:
    __slots__ = ("fleet", "broker_id", "endpoint", "alive")

    def __init__(self, fleet: "LeanBrokerFleet", broker_id: str, endpoint: Endpoint) -> None:
        self.fleet = fleet
        self.broker_id = broker_id
        self.endpoint = endpoint
        self.alive = True

    def on_udp(self, message, src) -> None:
        if not self.alive:
            return
        runtime = self.fleet.runtime
        kind = type(message)
        if kind is PingRequest:
            runtime.send_udp(
                self.endpoint,
                Endpoint(message.reply_host, message.reply_port),
                PingResponse(uuid=message.uuid, sent_at=message.sent_at, broker_id=self.broker_id),
            )
        elif kind is DiscoveryRequest:
            self.fleet.requests_answered += 1
            runtime.send_udp(
                self.endpoint,
                Endpoint(message.requester_host, message.requester_port),
                DiscoveryResponse(
                    request_uuid=message.uuid,
                    broker_id=self.broker_id,
                    hostname=self.endpoint.host,
                    transports=_TRANSPORTS,
                    issued_at=runtime.now,
                    metrics=_IDLE_METRICS,
                ),
            )

    def advertise(self, ttl: float) -> None:
        fleet = self.fleet
        fleet.advertisements_sent += 1
        fleet.runtime.send_udp(
            self.endpoint,
            fleet.bdn_endpoint,
            BrokerAdvertisement(
                broker_id=self.broker_id,
                hostname=self.endpoint.host,
                transports=_TRANSPORTS,
                logical_address=f"/churn/{self.broker_id}",
                region="north-america",
                institution="churn",
                issued_at=fleet.runtime.now,
                ttl=ttl,
            ),
        )

    def heartbeat(self) -> None:
        if self.alive:
            self.advertise(LEASE_TTL)


_TRANSPORTS = (("tcp", BROKER_TCP_PORT), ("udp", BROKER_UDP_PORT))
_IDLE_METRICS = UsageMetrics(
    free_memory=1 << 28,
    total_memory=1 << 29,
    num_links=0,
    num_connections=0,
    cpu_load=0.02,
    queue_depth=0,
)


class LeanBrokerFleet:
    """``n`` lean brokers heartbeating leases at one BDN, under churn.

    Brokers ``0`` and ``1`` are **anchors**: they sit on the sites
    nearest to and farthest from the BDN and never die, so a
    ``closest_farthest`` BDN always has two live injection targets and
    no request fails by construction.  Every other broker is churned:
    on each :data:`CHURN_INTERVAL` tick a live broker dies with
    probability :data:`DIE_P` and a dead one revives with probability
    :data:`REVIVE_P`.  A dead broker stops heartbeating and answering,
    so its lease lapses after :data:`LEASE_TTL`; a revived one
    re-advertises at once, which adds a key to the registry.  The
    initial state is drawn from the stationary distribution so the
    registry does not drift during the run.
    """

    def __init__(
        self, runtime, bdn_endpoint: Endpoint, n: int, site_of_index, rng: np.random.Generator
    ) -> None:
        self.runtime = runtime
        self.bdn_endpoint = bdn_endpoint
        self.rng = rng
        self.requests_answered = 0
        self.advertisements_sent = 0
        self.flips = 0
        self.brokers: list[_LeanBroker] = []
        for i in range(n):
            host = f"lb{i:04d}.churn"
            runtime.register_host(host, site_of_index(i))
            broker = _LeanBroker(self, f"lb{i:04d}", Endpoint(host, BROKER_UDP_PORT))
            runtime.bind_udp(broker.endpoint, broker.on_udp)
            self.brokers.append(broker)
        alive_share = REVIVE_P / (DIE_P + REVIVE_P)
        # A dead broker still holds an unexpired lease if it died less
        # than one TTL ago; in the stationary state that is this share.
        ticks_per_ttl = LEASE_TTL / CHURN_INTERVAL
        leased_dead_share = 1.0 - (1.0 - REVIVE_P) ** ticks_per_ttl
        for i, broker in enumerate(self.brokers):
            phase = float(rng.uniform(0.0, HEARTBEAT_INTERVAL))
            if i >= 2 and rng.random() >= alive_share:
                broker.alive = False
                if rng.random() < leased_dead_share:
                    broker.advertise(float(rng.uniform(1.0, LEASE_TTL)))
            else:
                broker.advertise(LEASE_TTL)
            runtime.call_every(HEARTBEAT_INTERVAL, broker.heartbeat, first_delay=phase)
        runtime.call_every(CHURN_INTERVAL, self._churn_tick)

    @property
    def alive_count(self) -> int:
        return sum(1 for b in self.brokers if b.alive)

    def _churn_tick(self) -> None:
        draws = self.rng.random(len(self.brokers))
        for i in range(2, len(self.brokers)):
            broker = self.brokers[i]
            if broker.alive:
                if draws[i] < DIE_P:
                    broker.alive = False
                    self.flips += 1
            elif draws[i] < REVIVE_P:
                broker.alive = True
                self.flips += 1
                broker.advertise(LEASE_TTL)
