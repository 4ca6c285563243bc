"""Per-layer microbenchmarks: direct timed calls into public functions.

Every figure is normalised us/op, the median of :data:`BATCHES`
calibrated batches (see :mod:`.calib`).  Engines are driven through
:class:`LoopRuntime`, a benchmark-side zero-latency implementation of
:class:`repro.runtime.api.Runtime` (FIFO datagrams, a timer heap,
in-memory links), so neither the simulated fabric nor real sockets are
inside an engine's timing.  The ``runtime.aio`` and ``simnet`` figures
time those layers themselves.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque

import numpy as np

from repro.core.codec import decode_message, encode_message, lazy_decode, wire_size
from repro.core.config import (
    BDNConfig,
    ClientConfig,
    Endpoint,
    ReplicationConfig,
    ServiceConfig,
)
from repro.core.dedup import DedupCache
from repro.core.errors import TransportError, UnknownHostError
from repro.core.messages import (
    Ack,
    BrokerAdvertisement,
    DiscoveryRequest,
    DiscoveryResponse,
    Event,
    PingRequest,
    PingResponse,
)
from repro.core.metrics import UsageMetrics, WeightConfig
from repro.discovery.bdn import BDN, BDN_UDP_PORT
from repro.discovery.ping import Pinger
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.discovery.selection import make_candidate, select_target_set
from repro.discovery.sharding import ShardedRegistry
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.runtime.aio import AioRuntime
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.service import IngressQueue
from repro.simnet.simulator import Simulator
from repro.substrate.broker import BROKER_TCP_PORT, BROKER_UDP_PORT, Broker

from . import catalog
from .calib import REF_OPS, median, spin
from .workloads import Counters, SegmentOut, drive_closed_loop

__all__ = ["BATCHES", "LoopRuntime", "run_micro"]

BATCHES = 5
_TRANSPORTS = (("tcp", BROKER_TCP_PORT), ("udp", BROKER_UDP_PORT))
_METRICS = UsageMetrics(
    free_memory=1 << 28, total_memory=1 << 30, num_links=5, num_connections=117,
    cpu_load=0.42, queue_depth=3,
)


# ---------------------------------------------------------------------------
# A zero-latency runtime for driving engines
# ---------------------------------------------------------------------------


class _Timer:
    __slots__ = ("cancelled", "fn", "args")

    def __init__(self, fn, args) -> None:
        self.cancelled = False
        self.fn = fn
        self.args = args

    def cancel(self) -> None:
        self.cancelled = True


class _LoopLink:
    """One side of an in-memory link; ``send`` queues for the peer."""

    def __init__(self, runtime: "LoopRuntime", local: Endpoint, remote: Endpoint) -> None:
        self._runtime = runtime
        self.local = local
        self.remote = remote
        self.peer: "_LoopLink | None" = None
        self.open = True
        self.on_receive = None
        self.on_close = None

    def send(self, message) -> None:
        self._runtime._ready.append((self.peer, message, self.local))

    def close(self) -> None:
        self.open = False


class LoopRuntime:
    """Zero-latency, lossless, in-memory :class:`~repro.runtime.api.Runtime`.

    ``send_udp`` queues the datagram for the bound handler (unbound
    destinations drop it, and count it); timers sit in a heap; nothing
    runs until :meth:`run` is called, so engines are never re-entered.
    Only the part of the surface the microbenchmarks exercise exists:
    hosts report multicast as disabled, and nothing is ever unbound.
    """

    kind = "loop"

    def __init__(self) -> None:
        self.now = 0.0
        self._hosts: dict[str, tuple[str, str]] = {}
        self._udp: dict[Endpoint, object] = {}
        self._listeners: dict[Endpoint, object] = {}
        self._ready: deque = deque()
        self._timers: list = []
        self._seq = 0
        self.datagrams_sent = 0
        self.datagrams_dropped = 0

    # -- scheduler -------------------------------------------------------
    def schedule(self, delay: float, fn, *args) -> _Timer:
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, when: float, fn, *args) -> _Timer:
        timer = _Timer(fn, args)
        self._seq += 1
        heapq.heappush(self._timers, (when, self._seq, timer))
        return timer

    def call_every(self, interval: float, fn, *args, first_delay: float | None = None) -> _Timer:
        series = _Timer(fn, args)

        def tick() -> None:
            if series.cancelled:
                return
            try:
                fn(*args)
            finally:
                if not series.cancelled:
                    self.schedule(interval, tick)

        self.schedule(interval if first_delay is None else first_delay, tick)
        return series

    def run(self, until: float) -> None:
        """Deliver queued messages and fire timers due by ``until``."""
        ready, timers = self._ready, self._timers
        while True:
            while ready:
                target, message, src = ready.popleft()
                if isinstance(target, _LoopLink):
                    if target.open and target.on_receive is not None:
                        target.on_receive(message, src)
                else:
                    target(message, src)
            if not timers or timers[0][0] > until:
                break
            when, _, timer = heapq.heappop(timers)
            if not timer.cancelled:
                self.now = when
                timer.fn(*timer.args)
        self.now = until

    # -- host registry ---------------------------------------------------
    def register_host(self, host, site, realm=None, multicast_enabled=True) -> None:
        self._hosts[host] = (site, realm if realm is not None else site)

    def site_of(self, host: str) -> str:
        try:
            return self._hosts[host][0]
        except KeyError:
            raise UnknownHostError(f"unknown host {host!r}") from None

    def realm_of(self, host: str) -> str:
        self.site_of(host)
        return self._hosts[host][1]

    def multicast_enabled(self, host: str) -> bool:
        return False

    # -- transport -------------------------------------------------------
    def bind_udp(self, endpoint: Endpoint, handler) -> None:
        self._udp[endpoint] = handler

    def send_udp(self, src: Endpoint, dst: Endpoint, message) -> None:
        self.datagrams_sent += 1
        handler = self._udp.get(dst)
        if handler is None:
            self.datagrams_dropped += 1
        else:
            self._ready.append((handler, message, src))

    def listen_tcp(self, endpoint: Endpoint, on_accept) -> None:
        self._listeners[endpoint] = on_accept

    def connect_tcp(self, src: Endpoint, dst: Endpoint, on_connected) -> None:
        acceptor = self._listeners.get(dst)
        if acceptor is None:
            raise TransportError(f"no TCP listener at {dst}")
        local, remote = _LoopLink(self, src, dst), _LoopLink(self, dst, src)
        local.peer, remote.peer = remote, local
        acceptor(remote)
        on_connected(local)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


class _Bench:
    """Runs microbenchmarks; keeps normalised us/op by metric name."""

    def __init__(self, scale: float) -> None:
        self.scale = max(0.02, min(1.0, scale))
        self.results: dict[str, float] = {}
        self._before = spin()

    def ops(self, full: int, floor: int = 4) -> int:
        return max(floor, int(full * self.scale))

    def run(self, name: str, body, ops: int, prepare=None) -> None:
        """``body()`` performs ``ops`` operations; ``prepare()`` runs
        untimed before every batch."""
        samples = []
        for _ in range(BATCHES):
            if prepare is not None:
                prepare()
            started = time.perf_counter()
            body()
            elapsed = time.perf_counter() - started
            after = spin()
            speed = 0.5 * (self._before + after) / REF_OPS
            self._before = after
            samples.append(elapsed * speed * 1e6 / ops)
        self.results[name] = median(samples)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([0x6D1C, *key])


def _request(uuid: str, host: str = "client.micro", port: int = 41_007) -> DiscoveryRequest:
    return DiscoveryRequest(
        uuid=uuid, requester_host=host, requester_port=port, transports=("udp", "tcp"),
        issued_at=1.0,
    )


def _advertisement(i: int, ttl: float = 15.0) -> BrokerAdvertisement:
    return BrokerAdvertisement(
        broker_id=f"mb{i:05d}",
        hostname=f"mb{i:05d}.micro",
        transports=_TRANSPORTS,
        logical_address=f"/micro/mb{i:05d}",
        region="north-america",
        institution="micro",
        issued_at=1.0,
        ttl=ttl,
    )


# ---------------------------------------------------------------------------
# The microbenchmarks, layer by layer
# ---------------------------------------------------------------------------


def _codec(bench: _Bench) -> None:
    request = DiscoveryRequest(
        uuid="6f1d90b3-8a34-4d4c-9c60-3a9f4c1b2e77",
        requester_host="client-7.realm-a.example",
        requester_port=41_007,
        transports=("udp", "tcp"),
        credentials=frozenset({"realm-a", "group-physics"}),
        realm="realm-a",
        issued_at=123.456,
        hop_count=3,
        attempt=1,
    )
    response = DiscoveryResponse(
        request_uuid=request.uuid,
        broker_id="broker-12",
        hostname="broker-12.realm-a.example",
        transports=_TRANSPORTS,
        issued_at=123.789,
        metrics=_METRICS,
    )
    ping = PingRequest(
        uuid="f0e9d8c7-b6a5-4432-9100-ffeeddccbbaa", sent_at=124.0,
        reply_host="client-7.realm-a.example", reply_port=41_008,
    )
    event = Event(
        uuid=f"{request.uuid}#1", topic="Services/BrokerDiscovery/Request",
        payload=encode_message(request), source="broker-3", issued_at=123.5,
    )
    messages = (request, response, _advertisement(12, ttl=30.0), ping, event)
    wires = tuple(encode_message(m) for m in messages)
    n = bench.ops(4000, 50)
    mix = [messages[i % 5] for i in range(n)]
    wire_mix = [wires[i % 5] for i in range(n)]
    request_wire = wires[0]

    def encode() -> None:
        for message in mix:
            encode_message(message)

    def decode() -> None:
        for wire in wire_mix:
            decode_message(wire)

    def size() -> None:
        for message in mix:
            wire_size(message)

    def lazy_key() -> None:
        for _ in range(n):
            lazy_decode(request_wire).request_key()

    bench.run("core.codec.encode_us", encode, n)
    bench.run("core.codec.decode_us", decode, n)
    bench.run("core.codec.wire_size_us", size, n)
    bench.run("core.codec.lazy_key_us", lazy_key, n)


def _noop(*_args) -> None:
    pass


def _simulator(bench: _Bench) -> None:
    standing = bench.ops(100_000, 1000)
    k = bench.ops(20_000, 200)
    for kind in ("wheel", "heap"):
        sim = Simulator(kind)
        for when in _rng(1).uniform(1e5, 2e5, standing):
            sim.schedule_at(float(when), _noop)
        delays = _rng(2).uniform(0.0, 1.0, k).tolist()

        def fire(sim=sim, delays=delays) -> None:
            schedule = sim.schedule
            for delay in delays:
                schedule(delay, _noop)
            sim.run(until=sim.now + 1.0)

        def cancel(sim=sim) -> None:
            schedule = sim.schedule
            for _ in range(k):
                schedule(30.0, _noop).cancel()
            sim.run(until=sim.now + 1.0)

        bench.run(f"simnet.simulator.{kind}_fire_us", fire, k)
        bench.run(f"simnet.simulator.{kind}_cancel_us", cancel, k)


def _fabric(bench: _Bench) -> None:
    k = bench.ops(4000, 50)
    sim = Simulator()
    network = Network(sim, latency=UniformLatencyModel(), loss=NoLoss(), rng=_rng(3))
    network.register_host("a.micro", "site-a")
    network.register_host("b.micro", "site-b")
    src, dst = Endpoint("a.micro", 9000), Endpoint("b.micro", 9000)
    network.bind_udp(dst, _noop)
    message = PingRequest(uuid="p", sent_at=0.0, reply_host="a.micro", reply_port=9000)

    def send_deliver() -> None:
        send = network.send_udp
        for _ in range(k):
            send(src, dst, message)
        sim.run()

    bench.run("simnet.network.send_deliver_us", send_deliver, k)

    queue = IngressQueue(sim, _noop, ServiceConfig(queue_capacity=k + 1, service_time=1e-6))

    def enqueue_serve() -> None:
        deliver = queue.deliver
        for _ in range(k):
            deliver(message, src)
        sim.run()

    bench.run("simnet.service.enqueue_serve_us", enqueue_serve, k)


def _aio(bench: _Bench) -> None:
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    runtime = AioRuntime()
    try:
        runtime.register_host("a.micro", "site-a")
        runtime.register_host("b.micro", "site-b")
        a_udp, b_udp = Endpoint("a.micro", 9000), Endpoint("b.micro", 9000)
        b_tcp = Endpoint("b.micro", 9001)
        ping = PingRequest(uuid="p", sent_at=0.0, reply_host="a.micro", reply_port=9000)
        state = {"left": 0, "done": None, "send": None}

        def bounce(message, src) -> None:
            state["left"] -= 1
            if state["left"] > 0:
                state["send"]()
            else:
                state["done"].set_result(None)

        def round_trips(send, k: int) -> None:
            state.update(left=k, done=loop.create_future(), send=send)
            send()
            loop.run_until_complete(state["done"])

        # UDP: a -> b, b echoes, a counts.
        runtime.bind_udp(a_udp, bounce)
        runtime.bind_udp(b_udp, lambda message, src: runtime.send_udp(b_udp, a_udp, message))
        links: dict[str, object] = {}

        def accepted(conn) -> None:
            conn.on_receive = lambda message, src: conn.send(message)
            links["server"] = conn

        def connected(conn) -> None:
            conn.on_receive = bounce
            links["client"] = conn

        runtime.listen_tcp(b_tcp, accepted)
        loop.run_until_complete(runtime.ready())
        runtime.connect_tcp(Endpoint("a.micro", 9001), b_tcp, connected)
        deadline = time.perf_counter() + 5.0
        while "server" not in links or "client" not in links:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"aio micro link did not come up: {list(runtime.errors)}")
            loop.run_until_complete(asyncio.sleep(0.005))

        k = bench.ops(300, 10)
        round_trips(lambda: runtime.send_udp(a_udp, b_udp, ping), 20)  # warm-up
        bench.run(
            "runtime.aio.udp_rtt_us",
            lambda: round_trips(lambda: runtime.send_udp(a_udp, b_udp, ping), k),
            k,
        )
        round_trips(lambda: links["client"].send(ping), 20)
        bench.run(
            "runtime.aio.tcp_frame_rtt_us",
            lambda: round_trips(lambda: links["client"].send(ping), k),
            k,
        )
        timers = bench.ops(1500, 20)
        bench.run(
            "runtime.aio.timer_us",
            lambda: round_trips(lambda: runtime.schedule(0.0, bounce, None, None), timers),
            timers,
        )
        if runtime.errors:
            raise RuntimeError(f"aio micro handler errors: {list(runtime.errors)}")
    finally:
        loop.run_until_complete(runtime.aclose())
        loop.close()
        asyncio.set_event_loop(None)


def _registered_bdn(n: int) -> tuple[LoopRuntime, BDN, object]:
    """A 16-shard BDN holding ``n`` ads, every broker distance-measured."""
    runtime = LoopRuntime()
    bdn = BDN(
        "bdn0", "bdn0.micro", runtime, _rng(4, n),
        config=BDNConfig(
            injection="closest_farthest", shards=16, ping_interval=1e9, fanout_delay=1e-6
        ),
        site="site-bdn",
    )
    bdn.start()
    bdn.ntp.sync_now()
    handler = runtime._udp[bdn.udp_endpoint]
    src = Endpoint("feeder.micro", 9000)

    def pong(message, sender) -> None:
        if type(message) is PingRequest:
            runtime.send_udp(
                sender, Endpoint(message.reply_host, message.reply_port),
                PingResponse(uuid=message.uuid, sent_at=message.sent_at, broker_id="b"),
            )

    for i in range(n):
        ad = _advertisement(i)
        runtime.bind_udp(Endpoint(ad.hostname, BROKER_UDP_PORT), pong)
        handler(ad, src)
        # Distinct RTTs, so the closest/farthest sort has real keys.
        runtime.run(until=runtime.now + 1e-6 * (1 + i % 97))
    return runtime, bdn, handler


def _bdn(bench: _Bench) -> None:
    src = Endpoint("client.micro", 41_007)
    serial = iter(range(10**9))
    for n, name, full in ((8, "request_n8_us", 400), (2000, "request_n2000_us", 6)):
        n = bench.ops(n, 8)
        runtime, bdn, handler = _registered_bdn(n)
        k = bench.ops(full, 2)

        def requests(runtime=runtime, handler=handler, k=k) -> None:
            for _ in range(k):
                handler(_request(f"micro-{next(serial)}"), src)
                runtime.run(until=runtime.now + 1e-3)

        bench.run(f"discovery.bdn.{name}", requests, k)
        if bdn.requests_disseminated == 0 or bdn.stale_targets:
            raise RuntimeError("bdn micro did not disseminate cleanly")
    k = bench.ops(300, 4)
    renewals = [_advertisement(i % n) for i in range(k)]
    feeder = Endpoint("feeder.micro", 9000)

    def renew() -> None:
        for ad in renewals:
            handler(ad, feeder)
            runtime.run(until=runtime.now + 1e-3)

    bench.run("discovery.bdn.advertisement_us", renew, k)


def _sharding(bench: _Bench) -> None:
    n = bench.ops(2000, 40)
    now = 10.0
    small = ShardedRegistry(shards=16)
    for i in range(8):
        small.accept(_advertisement(i), now)
    registry = ShardedRegistry(shards=16)
    ads = [_advertisement(i) for i in range(n)]
    for ad in ads:
        registry.accept(ad, now)
    k = bench.ops(3000, 20)

    def renew() -> None:
        accept = registry.accept
        for i in range(k):
            accept(ads[i % n], now)

    bench.run("discovery.sharding.accept_renew_us", renew, k)
    reads_small = bench.ops(3000, 20)
    bench.run(
        "discovery.sharding.all_n8_us",
        lambda: [small.all(now) for _ in range(reads_small)], reads_small,
    )
    reads = bench.ops(40, 4)
    registry.all(now)
    bench.run(
        "discovery.sharding.all_n2000_us", lambda: [registry.all(now) for _ in range(reads)], reads
    )
    joins = bench.ops(20, 2)
    fresh = iter(range(n, 10**9))

    def join_then_read() -> None:
        for _ in range(joins):
            registry.accept(_advertisement(next(fresh)), now)
            registry.all(now)

    bench.run("discovery.sharding.accept_new_us", join_then_read, joins)
    lapsing = max(2, n // 20)
    expiring = iter(range(10**8, 10**9))

    def add_lapsed() -> None:
        for _ in range(lapsing):
            registry.accept(_advertisement(next(expiring), ttl=1.0), now - 5.0)

    def evict() -> None:
        if len(registry.evict_expired(now)) != lapsing:
            raise RuntimeError("evict micro: unexpected eviction count")

    bench.run("discovery.sharding.evict_us", evict, lapsing, prepare=add_lapsed)

    cache = DedupCache(1000)
    for i in range(1000):
        cache.seen(("warm", i))
    k = bench.ops(20_000, 100)
    keys = iter(range(10**9))

    def seen() -> None:
        probe = cache.seen
        for _ in range(k):
            probe((next(keys), 0))

    bench.run("core.dedup.seen_add_us", seen, k)


def _responder(bench: _Bench) -> None:
    runtime = LoopRuntime()
    runtime.register_host("client.micro", "site-c")
    broker = Broker("b0", "b0.micro", runtime, _rng(5), site="site-b")
    responder = DiscoveryResponder(broker)
    broker.start()
    broker.ntp.sync_now()
    handler = runtime._udp[broker.udp_endpoint]
    src = Endpoint("bdn0.micro", BDN_UDP_PORT)
    k = bench.ops(400, 10)
    serial = iter(range(10**9))
    batch: list[DiscoveryRequest] = []

    def fresh() -> None:
        batch[:] = [_request(f"micro-{next(serial)}") for _ in range(k)]

    def deliver() -> None:
        for request in batch:
            handler(request, src)
            runtime.run(until=runtime.now + 0.01)

    bench.run("discovery.responder.respond_us", deliver, k, prepare=fresh)
    if responder.responses_sent < k:
        raise RuntimeError("responder micro sent no responses")
    bench.run("discovery.responder.duplicate_us", deliver, k)


def _requester(bench: _Bench) -> None:
    runtime = LoopRuntime()
    bdn = Endpoint("bdn0.micro", BDN_UDP_PORT)
    brokers = [Endpoint(f"b{i}.micro", BROKER_UDP_PORT) for i in range(5)]
    client = DiscoveryClient(
        "c0", "c0.micro", runtime, _rng(6),
        config=ClientConfig(bdn_endpoints=(bdn,), max_responses=5, target_set_size=3),
        site="site-c",
    )
    client.start()
    client.ntp.sync_now()

    def scripted_bdn(message, src) -> None:
        # The benchmark's stand-ins for the BDN and five brokers: an ack
        # and five responses, queued behind the request that caused them.
        if type(message) is not DiscoveryRequest:
            return
        requester = Endpoint(message.requester_host, message.requester_port)
        runtime.send_udp(bdn, requester, Ack(uuid=message.uuid, acked_by="bdn0"))
        for i, endpoint in enumerate(brokers):
            runtime.send_udp(
                endpoint, requester,
                DiscoveryResponse(
                    request_uuid=message.uuid, broker_id=f"b{i}", hostname=endpoint.host,
                    transports=_TRANSPORTS, issued_at=client.utc(), metrics=_METRICS,
                ),
            )

    def scripted_broker(message, src) -> None:
        if type(message) is PingRequest:
            runtime.send_udp(
                src, Endpoint(message.reply_host, message.reply_port),
                PingResponse(uuid=message.uuid, sent_at=message.sent_at, broker_id="b"),
            )

    runtime.bind_udp(bdn, scripted_bdn)
    for endpoint in brokers:
        runtime.bind_udp(endpoint, scripted_broker)
    k = bench.ops(100, 4)
    outcomes: list = []

    def rounds() -> None:
        for _ in range(k):
            client.discover(outcomes.append)
            runtime.run(until=runtime.now + 1.0)

    bench.run("discovery.requester.round_cpu_us", rounds, k)
    if len(outcomes) != k * BATCHES or not all(
        o.success and len(o.candidates) == 5 and len(o.ping_rtts) == 3 for o in outcomes
    ):
        raise RuntimeError("requester micro: a scripted round did not complete as scripted")

    node = Node("pinger", "pinger.micro", runtime, _rng(7), site="site-p")
    reply = Endpoint("pinger.micro", 9000)
    pinger = Pinger(node, reply)
    target = Endpoint("nobody.micro", 9000)
    k_ping = bench.ops(3000, 20)

    def ping_pong() -> None:
        for _ in range(k_ping):
            uuid = pinger.ping(target, key="b")
            pinger.on_response(
                PingResponse(uuid=uuid, sent_at=node.clock.raw(), broker_id="b"), target
            )

    bench.run("discovery.ping.ping_pong_us", ping_pong, k_ping)
    if pinger.pongs_received != k_ping * BATCHES:
        raise RuntimeError("ping micro lost pongs")


def _selection(bench: _Bench) -> None:
    weights = WeightConfig()
    rng = _rng(8)
    for n, full in ((5, 2000), (30, 400), (1000, 10)):
        candidates = [
            make_candidate(
                DiscoveryResponse(
                    request_uuid="r", broker_id=f"b{i:04d}", hostname=f"b{i:04d}.micro",
                    transports=_TRANSPORTS, issued_at=100.0 - float(rng.uniform(0.0, 0.1)),
                    metrics=_METRICS,
                ),
                100.0,
                weights,
            )
            for i in range(n)
        ]
        k = bench.ops(full, 2)

        def select(candidates=candidates, k=k) -> None:
            for _ in range(k):
                select_target_set(candidates, 10, required_transports=("udp", "tcp"))

        bench.run(f"discovery.selection.select_n{n}_us", select, k)


def _replication(bench: _Bench) -> None:
    runtime = LoopRuntime()
    members = tuple((f"d{j}", Endpoint(f"d{j}.micro", BDN_UDP_PORT)) for j in range(3))
    # Timers far apart: the micro prices a replicated write, not ticking.
    replication = ReplicationConfig(
        group="g0", members=members, lease_duration=1e6, heartbeat_interval=1e5,
        election_stagger=10.0, anti_entropy_interval=1e5,
    )
    bdns = []
    for j, (name, endpoint) in enumerate(members):
        bdn = BDN(
            name, endpoint.host, runtime, _rng(9, j),
            config=BDNConfig(injection="all", ping_interval=1e9, replication=replication),
            site=f"site-d{j}",
        )
        bdn.start()
        bdn.ntp.sync_now()
        bdns.append(bdn)
    runtime.run(until=1e6 + 5.0)  # d0's election timeout; the others vote
    leader = bdns[0]
    if not leader.replication.is_leader():
        raise RuntimeError("replication micro: d0 did not win the election")
    handler = runtime._udp[leader.udp_endpoint]
    src = Endpoint("feeder.micro", 9000)
    k = bench.ops(200, 4)
    ads = [_advertisement(i % 50, ttl=1e7) for i in range(k)]
    commits_before = leader.replication.commits

    def writes() -> None:
        for ad in ads:
            handler(ad, src)
            runtime.run(until=runtime.now + 1e-3)

    bench.run("discovery.replication.append_commit_us", writes, k)
    if leader.replication.commits - commits_before != k * BATCHES:
        raise RuntimeError("replication micro: not every write committed")


def _broker(bench: _Bench) -> None:
    runtime = LoopRuntime()
    brokers = [
        Broker(f"b{i}", f"b{i}.micro", runtime, _rng(10, i), site=f"site-b{i}") for i in range(5)
    ]
    for broker in brokers:
        broker.start()
        broker.ntp.sync_now()
    hub = brokers[0]
    for spoke in brokers[1:]:
        hub.link_to(spoke)
    runtime.run(until=runtime.now + 1.0)
    if hub.link_count != 4:
        raise RuntimeError("broker micro: star links did not come up")
    k = bench.ops(400, 10)
    serial = iter(range(10**9))
    payload = b"p" * 64
    routed_before = sum(b.events_routed for b in brokers[1:])

    def publish() -> None:
        for _ in range(k):
            hub.publish_local(
                Event(
                    uuid=f"micro-{next(serial)}", topic="micro/flood", payload=payload,
                    source="b0", issued_at=1.0,
                )
            )
            runtime.run(until=runtime.now + 1e-3)

    bench.run("substrate.broker.publish_forward_us", publish, k)
    if sum(b.events_routed for b in brokers[1:]) - routed_before != 4 * k * BATCHES:
        raise RuntimeError("broker micro: spokes did not see every event")


def _observe_overhead(bench: _Bench) -> None:
    """``sim_star`` host time per discovery, observed over unobserved."""
    n = bench.ops(150, 10)
    per_discovery: dict[bool, list[float]] = {False: [], True: []}
    before = spin()
    for trial in range(3):
        for observe in (False, True):
            scenario = DiscoveryScenario(ScenarioSpec.star(seed=77 + trial), observe=observe)
            registered = frozenset(scenario.bdn.store.broker_ids())
            out = SegmentOut()
            started = time.perf_counter()
            drive_closed_loop(
                scenario.client, scenario.net.sim, n, 0.5, out, Counters(), registered
            )
            elapsed = time.perf_counter() - started
            after = spin()
            per_discovery[observe].append(elapsed * 0.5 * (before + after) / REF_OPS / n)
            before = after
    bench.results["obs.observe_overhead_x"] = median(per_discovery[True]) / median(
        per_discovery[False]
    )


def run_micro(scale: float = 1.0) -> dict[str, float]:
    """Every microbenchmark; ``{metric name: value}`` in catalogue units."""
    bench = _Bench(scale)
    for section in (
        _codec, _simulator, _fabric, _aio, _bdn, _sharding, _responder, _requester,
        _selection, _replication, _broker, _observe_overhead,
    ):
        section(bench)
    missing = [m.name for m in catalog.MICRO if m.name not in bench.results]
    if missing:
        raise RuntimeError(f"microbenchmarks missing from the suite: {missing}")
    return bench.results
