"""The ping phase counts, and averages, only the pongs of its own run.

Three brokers at distinct distances from the client (one-way 40, 5 and
20 ms for ``b0``, ``b1`` and ``b2``), so the nearest broker wins
outright and a polluted RTT shows up as a different choice.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ClientConfig
from repro.core.messages import PingResponse
from repro.discovery.requester import DiscoveryClient
from repro.experiments.harness import run_discovery_once
from repro.simnet.latency import MatrixLatencyModel
from tests.discovery.conftest import World

SITES = ("s0", "s1", "s2", "bdn-site", "client-site")


def distinct_world() -> World:
    one_way_ms = np.full((5, 5), 10.0)
    np.fill_diagonal(one_way_ms, 0.1)
    for i, ms in enumerate((40.0, 5.0, 20.0)):
        one_way_ms[i, 4] = one_way_ms[4, i] = ms
    return World(n_brokers=3, seed=2, latency=MatrixLatencyModel(SITES, one_way_ms))


class ScriptedPongs(DiscoveryClient):
    """A client whose pong arrivals the test can hold back and watch.

    The second pong ``b1`` sends is held; once ``release`` is set, the
    next pong to arrive is preceded by the held one.  Every pong the
    client hands on is timed in ``pong_times``.
    """

    def __init__(self, world: World, config: ClientConfig) -> None:
        super().__init__(
            "c-pongs", "c-pongs.host", world.net.network, np.random.default_rng(9),
            config=config, site="client-site",
        )
        self.hold_b1 = False
        self.release = False
        self.held: list = []
        self.pong_times: list[float] = []
        self._b1_pongs = 0

    def _on_udp(self, message, src) -> None:
        if isinstance(message, PingResponse):
            if self.release:
                while self.held:
                    self._pong(*self.held.pop())
            elif self.hold_b1 and message.broker_id == "b1":
                self._b1_pongs += 1
                if self._b1_pongs == 2:
                    self.held.append((message, src))
                    return
            self._pong(message, src)
            return
        super()._on_udp(message, src)

    def _pong(self, message, src) -> None:
        self.pong_times.append(self.runtime.now)
        super()._on_udp(message, src)


def started_client(world: World, **overrides) -> ScriptedPongs:
    config = ClientConfig(
        bdn_endpoints=(world.bdn.udp_endpoint,),
        max_responses=3,
        target_set_size=3,
        response_timeout=2.0,
        **overrides,
    )
    client = ScriptedPongs(world, config)
    client.start()
    world.sim.run_for(6.0)  # NTP's initial sync
    return client


def test_an_earlier_runs_pong_does_not_steer_the_next_run():
    world = distinct_world()
    client = started_client(world)
    client.hold_b1 = True
    first = run_discovery_once(client)
    assert first.selected.broker_id == "b1"
    assert len(client.held) == 1

    client.release = True
    second = run_discovery_once(client)
    assert client.held == []
    # Counted and averaged, run 1's pong (hundreds of ms old) would have
    # made b1 look far and handed the choice to b2.
    assert second.selected.broker_id == "b1"
    assert second.ping_rtts["b1"] < 0.02


def test_seventeen_repeats_decide_on_the_last_pong():
    """More repeats than the pinger keeps samples per broker: the pong
    count still reaches its total, so the phase ends at the last pong
    rather than ``PING_GRACE`` after it."""
    world = distinct_world()
    client = started_client(world, ping_repeats=17)
    started = world.sim.now
    outcome = run_discovery_once(client)
    assert outcome.selected.broker_id == "b1"
    assert len(client.pong_times) == 3 * 17
    durations = outcome.phases.durations()
    ping_ended = started + sum(
        durations[phase]
        for phase in (
            "issue_request", "wait_initial_responses", "process_responses", "ping_target_set",
        )
    )
    assert abs(ping_ended - client.pong_times[-1]) < 1e-9
