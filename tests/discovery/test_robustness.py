"""Robustness properties of the discovery protocol.

The strongest claim worth checking mechanically: *whatever the loss
rate, seed, or configuration, a discovery attempt always terminates* --
with success or with a clean failure -- and never wedges the simulator
or misreports its outcome.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import ClientConfig, Endpoint
from repro.core.messages import Ack, DiscoveryResponse
from repro.simnet.loss import UniformLoss
from tests.discovery.conftest import World
from tests.conftest import make_metrics


@given(
    loss=st.floats(min_value=0.0, max_value=0.85),
    seed=st.integers(min_value=0, max_value=10_000),
    n_brokers=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_property_discovery_always_terminates(loss, seed, n_brokers):
    """Any loss rate, any seed: the outcome callback always fires and
    the report is internally consistent."""
    world = World(
        n_brokers=n_brokers,
        seed=seed,
        loss=UniformLoss(loss) if loss > 0 else None,
        client_config=ClientConfig(
            bdn_endpoints=(Endpoint("bdn0.host", 7000),),
            response_timeout=1.0,
            max_responses=n_brokers,
            target_set_size=min(2, n_brokers),
            retransmit_interval=0.4,
            max_retransmits=2,
            ping_timeout=0.5,
        ),
    )
    outcome = world.discover()  # run_discovery_once raises if wedged
    if outcome.success:
        assert outcome.selected is not None
        assert outcome.selected.broker_id in {b.name for b in world.brokers}
        assert 1 <= len(outcome.target_set) <= 2
        assert outcome.total_time > 0
    else:
        assert outcome.selected is None
    assert outcome.transmissions >= 1
    # The phase timer is closed and covers the whole run.
    assert outcome.phases.open_phase is None
    assert outcome.phases.total() <= outcome.total_time + 1e-6


class TestHostileMessages:
    """Stray or spoofed datagrams must never corrupt a run."""

    def test_unsolicited_ack_ignored(self, small_world):
        client = small_world.client
        # Spoofed ack for a uuid that was never issued.
        small_world.net.network.send_udp(
            small_world.bdn.udp_endpoint,
            client.udp_endpoint,
            Ack(uuid="never-issued", acked_by="evil"),
        )
        small_world.sim.run_for(1.0)
        outcome = small_world.discover()
        assert outcome.success

    def test_response_for_wrong_request_ignored(self, small_world):
        client = small_world.client
        stray = DiscoveryResponse(
            request_uuid="some-old-request",
            broker_id="ghost",
            hostname="ghost.example",
            transports=(("tcp", 5045), ("udp", 5046)),
            issued_at=0.0,
            metrics=make_metrics(),
        )
        outcomes = []
        client.discover(outcomes.append)
        small_world.net.network.register_host("ghost.example", "gx")
        small_world.net.network.send_udp(
            Endpoint("ghost.example", 1), client.udp_endpoint, stray
        )
        while not outcomes:
            small_world.sim.step()
        assert all(c.broker_id != "ghost" for c in outcomes[0].candidates)
        assert client.late_responses >= 1

    def test_forged_response_for_live_request_is_a_candidate(self):
        """A response spoofing the live uuid IS accepted -- the paper's
        threat model defers authentication to credentials/signatures
        (section 9.1), which the secure envelope provides."""
        world = World(n_brokers=2)
        client = world.client
        outcomes = []
        world.net.network.register_host("mallory.example", "mx")
        uuid = client.discover(outcomes.append)
        forged = DiscoveryResponse(
            request_uuid=uuid,
            broker_id="mallory",
            hostname="mallory.example",
            transports=(("tcp", 5045), ("udp", 5046)),
            issued_at=world.client.utc(),
            metrics=make_metrics(),
        )
        world.net.network.send_udp(
            Endpoint("mallory.example", 5046), client.udp_endpoint, forged
        )
        while not outcomes:
            world.sim.step()
        assert any(c.broker_id == "mallory" for c in outcomes[0].candidates)

    def test_duplicate_responses_from_same_broker_counted_once(self, small_world):
        client = small_world.client
        outcomes = []
        uuid = client.discover(outcomes.append)
        dup = DiscoveryResponse(
            request_uuid=uuid,
            broker_id="b0",
            hostname=small_world.brokers[0].host,
            transports=(("tcp", 5045), ("udp", 5046)),
            issued_at=client.utc(),
            metrics=make_metrics(),
        )
        for _ in range(5):
            small_world.net.network.send_udp(
                small_world.brokers[0].udp_endpoint, client.udp_endpoint, dup
            )
        while not outcomes:
            small_world.sim.step()
        ids = [c.broker_id for c in outcomes[0].candidates]
        assert ids.count("b0") == 1
