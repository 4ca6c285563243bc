"""Overload protection: primitives, admission control, and fallbacks.

Covers the client-side machinery (token-bucket retry budget,
decorrelated-jitter backoff, per-BDN circuit breaker) as deterministic
state machines under the virtual clock, BDN admission control shedding
with DiscoveryBusy, broker response suppression under load, and the
full fallback ladder when every configured BDN is busy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    BDNConfig,
    BrokerConfig,
    ClientConfig,
    RetryPolicyConfig,
    ServiceConfig,
)
from repro.core.invariants import Breach, bdn_evidence, queue_bounds
from repro.discovery.advertisement import advertise_direct
from repro.discovery.bdn import BDN
from repro.discovery.faults import FaultInjector
from repro.discovery.overload import CircuitBreaker, DecorrelatedJitterBackoff, TokenBucket
from repro.discovery.requester import DiscoveryClient
from repro.discovery.responder import DiscoveryResponder
from repro.experiments.harness import run_discovery_once
from repro.simnet.latency import UniformLatencyModel
from repro.simnet.loss import NoLoss
from repro.simnet.simulator import Simulator
from repro.substrate.builder import BrokerNetwork

from tests.discovery.conftest import World


def at_rest(bdn, watermark):
    """The overload chaos run's queue verdict on one BDN after its storms."""
    return queue_bounds(bdn.name, bdn_evidence([bdn]).queues[bdn.name], watermark)


# ---------------------------------------------------------------------------
# Primitives under the virtual clock
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_spends_down(self):
        sim = Simulator()
        bucket = TokenBucket(3, 1.0, lambda: sim.now)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_refills_with_virtual_time(self):
        sim = Simulator()
        bucket = TokenBucket(2, 0.5, lambda: sim.now)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        sim.run_for(2.0)  # 1 token refilled at 0.5/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        sim = Simulator()
        bucket = TokenBucket(2, 10.0, lambda: sim.now)
        sim.run_for(100.0)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucket(0, 1.0, lambda: sim.now)
        with pytest.raises(ValueError):
            TokenBucket(1, 0.0, lambda: sim.now)


class TestBackoff:
    def test_delays_stay_within_bounds(self):
        backoff = DecorrelatedJitterBackoff(0.25, 5.0, np.random.default_rng(0))
        for _ in range(200):
            assert 0.25 <= backoff.next() <= 5.0

    def test_same_seed_same_sequence(self):
        a = DecorrelatedJitterBackoff(0.25, 5.0, np.random.default_rng(7))
        b = DecorrelatedJitterBackoff(0.25, 5.0, np.random.default_rng(7))
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    def test_grows_in_expectation_until_cap(self):
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(300):
            backoff = DecorrelatedJitterBackoff(0.1, 100.0, rng)
            seq = [backoff.next() for _ in range(6)]
            samples.append(seq)
        means = np.mean(samples, axis=0)
        assert all(later > earlier for earlier, later in zip(means, means[1:]))

    def test_reset_restarts_the_recurrence(self):
        backoff = DecorrelatedJitterBackoff(0.25, 5.0, np.random.default_rng(0))
        for _ in range(10):
            backoff.next()
        backoff.reset()
        assert backoff.next() <= 0.75  # uniform(base, 3 * base)

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            DecorrelatedJitterBackoff(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            DecorrelatedJitterBackoff(1.0, 0.5, rng)


class TestCircuitBreaker:
    def _breaker(self, failures=3, cooldown=1.0):
        sim = Simulator()
        return sim, CircuitBreaker(failures, cooldown, lambda: sim.now)

    def test_trips_after_consecutive_failures(self):
        sim, breaker = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == breaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        sim, breaker = self._breaker(failures=2)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.trips == 0

    def test_half_open_probe_after_cooldown(self):
        sim, breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        sim.run_for(0.5)
        assert not breaker.allow()  # cooldown not over
        sim.run_for(0.5)
        assert breaker.allow()  # the probe
        assert breaker.state == breaker.HALF_OPEN
        assert not breaker.allow()  # probe already consumed
        breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        sim, breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        sim.run_for(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_lost_probe_does_not_wedge(self):
        """A probe whose answer never arrives must not shut the breaker
        forever: after another full cooldown a new probe is granted."""
        sim, breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        sim.run_for(1.0)
        assert breaker.allow()  # probe fires, then... nothing comes back
        sim.run_for(1.0)
        assert breaker.allow()  # a fresh probe

    def test_available_is_side_effect_free(self):
        sim, breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        sim.run_for(1.0)
        assert breaker.available() and breaker.available()
        assert breaker.state == breaker.OPEN  # no probe consumed
        assert breaker.allow()  # allow() still grants it

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CircuitBreaker(0, 1.0, lambda: sim.now)
        with pytest.raises(ValueError):
            CircuitBreaker(1, 0.0, lambda: sim.now)


# ---------------------------------------------------------------------------
# BDN admission control
# ---------------------------------------------------------------------------
def _bdn_service() -> ServiceConfig:
    # Discovery requests are the expensive message class; the control
    # chatter (ads, pongs) stays cheap so it cannot trip admission.
    return ServiceConfig(
        queue_capacity=8,
        service_time=1.0,
        service_times=(("BrokerAdvertisement", 0.001), ("PingResponse", 0.001)),
    )


class TestBDNAdmission:
    def test_storm_is_shed_with_busy_and_bounded_queue(self):
        world = World(
            bdn_config=BDNConfig(
                injection="all",
                service=_bdn_service(),
                admission_high_watermark=1,
                busy_retry_after=0.5,
            )
        )
        bdn = world.bdn
        injector = FaultInjector(world.net.network)
        injector.request_storm(bdn.udp_endpoint, rate=10.0, start=world.sim.now + 0.1, duration=2.0)
        world.sim.run_for(6.0)
        assert bdn.requests_shed > 0
        assert bdn.ingress.max_depth <= 8

    def test_sharded_bdn_with_service_model_exposes_its_queue(self):
        # Regression: a sharded BDN with a service model used to run
        # per-shard lanes and leave ``bdn.ingress`` None, so the chaos
        # check, the worker's queue stats and the overload gauges all
        # read depth 0 and skipped their invariants.
        from repro.core.config import Endpoint
        from repro.core.messages import Ack, DiscoveryBusy, DiscoveryRequest
        from repro.core.metrics import OverloadStats

        world = World(
            bdn_config=BDNConfig(
                injection="all",
                shards=4,
                service=_bdn_service(),
                admission_high_watermark=4,
            )
        )
        bdn, fabric = world.bdn, world.net.network
        inbox_at = Endpoint(world.client.host, 7999)
        busies = []
        fabric.bind_udp(
            inbox_at, lambda m, s: busies.append(m) if isinstance(m, DiscoveryBusy) else None
        )
        # 20 requests at once: 4 queue up to the watermark, 16 are shed.
        # 6 acks (never shed, 1 s each): 4 fill the queue, 2 overflow.
        for i in range(20):
            request = DiscoveryRequest(
                uuid=f"burst-{i}", requester_host=inbox_at.host, requester_port=inbox_at.port
            )
            fabric.send_udp(inbox_at, bdn.udp_endpoint, request)
        world.sim.run_for(0.2)
        for i in range(6):
            fabric.send_udp(inbox_at, bdn.udp_endpoint, Ack(uuid=f"junk-{i}", acked_by="x"))
        world.sim.run_for(0.2)
        queue = bdn.ingress
        assert queue.depth == bdn.queue_depth == queue.max_depth == 8
        assert queue.overflows == 2
        assert bdn.requests_shed == len(busies) == 16
        stats = OverloadStats.gather(bdns=[bdn])
        assert (stats.queue_depth, stats.queue_peak, stats.queue_overflows) == (8, 8, 2)
        backlog = at_rest(bdn, watermark=4)
        assert [b.invariant for b in backlog] == ["queue_overflow", "queue_watermark"]
        assert "still 8 deep" in backlog[1].detail
        world.sim.run_for(20.0)
        assert queue.depth == 0 and queue.served >= 8
        drained = at_rest(bdn, watermark=4)
        # The backlog is gone; the two drops at the full queue happened.
        assert [b.invariant for b in drained] == ["queue_overflow"]

    def test_no_service_model_means_no_shedding(self):
        world = World()
        assert world.bdn.ingress is None
        injector = FaultInjector(world.net.network)
        injector.request_storm(
            world.bdn.udp_endpoint, rate=10.0, start=world.sim.now + 0.1, duration=1.0
        )
        world.sim.run_for(3.0)
        assert world.bdn.requests_shed == 0

    def test_overload_check_flags_a_bdn_without_a_queue(self):
        # Every BDN of an overload=True world has a service model, so one
        # without an ingress queue is missing evidence, not "depth 0".
        world = World()
        assert world.bdn.ingress is None
        assert at_rest(world.bdn, watermark=4) == [
            Breach("no_evidence", world.bdn.name, "no ingress-queue evidence")
        ]

    def test_unknown_message_counted(self):
        world = World()
        from repro.core.messages import Subscribe

        world.net.network.send_udp(
            world.client.udp_endpoint,
            world.bdn.udp_endpoint,
            Subscribe(uuid="u", topic="t", subscriber="s"),
        )
        world.sim.run_for(1.0)
        assert world.bdn.unknown_messages == 1

    def test_undecodable_lazy_message_counted_not_crashing(self):
        """An undecodable wire view delivered to the BDN's UDP handler
        (the ingress-queue callback) must be counted as an unknown
        message, not crash the queue drain."""
        from repro.core.codec import encode_message, lazy_decode
        from repro.core.messages import DiscoveryRequest

        world = World(
            bdn_config=BDNConfig(
                service=ServiceConfig(queue_capacity=8, service_time=0.01)
            )
        )
        buf = encode_message(
            DiscoveryRequest(uuid="u-crash", requester_host="h", requester_port=1)
        )
        lazy = lazy_decode(buf[:-3])  # valid header, truncated body
        world.bdn.ingress.deliver(lazy, world.client.udp_endpoint)
        world.sim.run_for(1.0)
        assert world.bdn.unknown_messages == 1
        assert world.bdn.alive

    def test_lazy_message_materialized_and_dispatched(self):
        """A well-formed lazy view through the same path is processed
        exactly like the eager message."""
        from repro.core.codec import encode_message, lazy_decode
        from repro.core.messages import BrokerAdvertisement

        world = World(register=False)
        ad = BrokerAdvertisement(
            broker_id="lazy-b",
            hostname=world.brokers[0].host,
            transports=(("udp", 5044), ("tcp", 5045)),
            logical_address="/lab/lazy-b",
            region="",
            institution="",
            issued_at=world.sim.now,
            ttl=60.0,
        )
        lazy = lazy_decode(encode_message(ad))
        world.bdn._on_udp(lazy, world.client.udp_endpoint)
        assert world.bdn.store.get("lazy-b") is not None
        assert world.bdn.unknown_messages == 0


# ---------------------------------------------------------------------------
# Broker response suppression
# ---------------------------------------------------------------------------
class TestResponseSuppression:
    def test_loaded_broker_withholds_responses(self):
        world = World(
            n_brokers=1,
            broker_config=BrokerConfig(
                service=ServiceConfig(queue_capacity=8, service_time=0.5),
                response_suppress_depth=2,
            ),
        )
        broker = world.brokers[0]
        injector = FaultInjector(world.net.network)
        injector.request_storm(
            broker.udp_endpoint, rate=20.0, start=world.sim.now + 0.1, duration=1.0
        )
        world.sim.run_for(10.0)
        responder = world.responders[broker.name]
        assert responder.responses_suppressed > 0
        assert broker.ingress.max_depth <= 8
        assert broker.ingress.overflows > 0  # 20 arrivals into a depth-8 queue
        assert world.net.obs.count("discovery_response_suppressed") > 0
        assert world.net.obs.count("queue_overflow") > 0

    def test_metrics_carry_live_queue_depth(self):
        world = World(
            n_brokers=1,
            broker_config=BrokerConfig(
                service=ServiceConfig(queue_capacity=8, service_time=0.5)
            ),
        )
        broker = world.brokers[0]
        assert broker.usage_metrics().queue_depth == 0
        injector = FaultInjector(world.net.network)
        injector.request_storm(
            broker.udp_endpoint, rate=20.0, start=world.sim.now + 0.1, duration=1.0
        )
        world.sim.run_for(1.5)  # mid-drain: the queue is visibly deep
        assert broker.usage_metrics().queue_depth > 0


# ---------------------------------------------------------------------------
# The fallback ladder when every BDN is busy
# ---------------------------------------------------------------------------
class _TwoBDNWorld:
    """Three brokers, two admission-controlled BDNs, one policy client."""

    def __init__(self, seed: int = 0, multicast: bool = True) -> None:
        self.net = BrokerNetwork(
            seed=seed,
            latency=UniformLatencyModel(base=0.010, jitter_fraction=0.02),
            loss=NoLoss(),
            keep_trace=True,
        )
        self.brokers = []
        self.responders = {}
        for i in range(3):
            broker = self.net.add_broker(f"b{i}", site=f"s{i}", realm="lab")
            self.responders[broker.name] = DiscoveryResponder(broker)
            self.brokers.append(broker)
        self.bdns = []
        for j in range(2):
            bdn = BDN(
                f"d{j}",
                f"d{j}.host",
                self.net.network,
                np.random.default_rng(seed + 10 + j),
                config=BDNConfig(
                    injection="all",
                    service=_bdn_service(),
                    admission_high_watermark=1,
                    busy_retry_after=0.5,
                ),
                site=f"bdn-s{j}",
                realm="lab",
                obs=self.net.obs,
            )
            bdn.start()
            self.bdns.append(bdn)
            for broker in self.brokers:
                advertise_direct(broker, bdn.udp_endpoint)
        self.net.settle(8.0)
        self.client = DiscoveryClient(
            "c0",
            "c0.host",
            self.net.network,
            np.random.default_rng(seed + 20),
            config=ClientConfig(
                bdn_endpoints=tuple(b.udp_endpoint for b in self.bdns),
                response_timeout=3.0,
                retransmit_interval=3.0,
                max_responses=3,
                target_set_size=3,
                retry_policy=RetryPolicyConfig(
                    budget_capacity=2,
                    budget_refill_per_sec=0.5,
                    backoff_base=0.2,
                    backoff_cap=0.5,
                    breaker_failures=3,
                    breaker_cooldown=1.0,
                ),
            ),
            site="client-site",
            realm="lab",
            multicast_enabled=multicast,
            obs=self.net.obs,
        )
        self.client.start()
        self.net.sim.run_for(6.0)
        self.injector = FaultInjector(self.net.network)

    @property
    def sim(self):
        return self.net.sim

    def storm_all_bdns(self, duration: float = 6.0) -> None:
        """Keep every BDN's request queue non-empty for ``duration``."""
        for bdn in self.bdns:
            self.injector.request_storm(
                bdn.udp_endpoint, rate=10.0, start=self.sim.now + 0.05, duration=duration
            )

    def events(self) -> list[str]:
        return [r.event for r in self.net.obs.log]


class TestBusyFallbackLadder:
    def test_all_bdns_busy_falls_through_to_multicast(self):
        world = _TwoBDNWorld(multicast=True)
        world.storm_all_bdns()
        world.sim.run_for(0.5)  # storms underway: both queues occupied
        outcome = run_discovery_once(world.client)
        assert outcome.success
        assert outcome.via == "multicast"
        assert world.client.busy_received >= 2
        events = world.events()
        assert "bdn_busy_received" in events
        assert "request_multicast" in events

    def test_all_bdns_busy_no_multicast_falls_through_to_cached(self):
        world = _TwoBDNWorld(multicast=False)
        # A calm first discovery seeds the cached target set.
        warm = run_discovery_once(world.client)
        assert warm.success and warm.via == "bdn"
        assert world.client.last_target_set
        # Now every BDN is overloaded and multicast is unavailable.
        world.storm_all_bdns()
        world.sim.run_for(0.5)
        outcome = run_discovery_once(world.client)
        assert outcome.success
        assert outcome.via == "cached"
        assert world.client.busy_received >= 2
        # Either the budget ran dry or the skip loop found every BDN
        # inadmissible (retry_after gate / open breaker) -- both are
        # protective exits onto the fallback ladder.
        assert world.client.retries_denied >= 1 or world.client.bdn_skips >= 1
        events = world.events()
        assert "bdn_busy" in events  # BDN side: request shed
        assert "bdn_busy_received" in events  # client side: signal seen
        assert "request_cached_targets" in events
        assert "request_multicast" not in events
        # The busy BDNs accumulated failures; breakers saw them.
        assert all(b.state != b.CLOSED for b in world.client._breakers.values()) or (
            world.client.busy_received >= 2
        )

    def test_busy_bdns_gate_future_sends(self):
        world = _TwoBDNWorld(multicast=True)
        world.storm_all_bdns()
        world.sim.run_for(0.5)
        run_discovery_once(world.client)
        assert world.client._bdn_retry_at  # retry_after stamps recorded
        for gate in world.client._bdn_retry_at.values():
            assert gate > 0.0

    def test_breaker_opens_on_repeated_busy_and_recloses(self):
        world = _TwoBDNWorld(multicast=True)
        world.storm_all_bdns(duration=8.0)
        world.sim.run_for(0.5)
        # Hammer discoveries into the storm until some breaker trips.
        for _ in range(6):
            run_discovery_once(world.client)
            world.sim.run_for(0.5)
        assert world.client.busy_received > 0
        # After the storm passes and the queues drain, a fresh
        # discovery succeeds through the BDNs again (half-open probe
        # re-closes the breaker).
        world.sim.run_for(15.0)
        outcome = run_discovery_once(world.client)
        assert outcome.success
        for breaker in world.client._breakers.values():
            assert breaker.state == breaker.CLOSED or breaker.available()
