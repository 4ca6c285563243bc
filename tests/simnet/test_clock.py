"""Tests for drifting clocks and the NTP service (paper section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simnet.clock import Clock, NTPService
from repro.simnet.simulator import Simulator


class TestClock:
    def test_offset_applied(self):
        sim = Simulator()
        clock = Clock(sim, offset=2.0)
        sim.run_for(10.0)
        assert clock.raw() == pytest.approx(12.0)

    def test_skew_applied(self):
        sim = Simulator()
        clock = Clock(sim, skew=0.01)
        sim.run_for(100.0)
        assert clock.raw() == pytest.approx(101.0)

    def test_random_clock_within_spec(self):
        sim = Simulator()
        for seed in range(20):
            clock = Clock.random(sim, np.random.default_rng(seed))
            assert -5.0 <= clock.offset <= 5.0
            assert abs(clock.skew) <= 100e-6

    def test_true_time_matches_sim(self):
        sim = Simulator()
        clock = Clock(sim, offset=99.0)
        sim.run_for(3.0)
        assert clock.true_time() == 3.0


class TestNTPService:
    def _make(self, seed=0, **kw):
        sim = Simulator()
        rng = np.random.default_rng(seed)
        clock = Clock.random(sim, rng)
        return sim, clock, NTPService(sim, clock, rng, **kw)

    def test_unsynchronized_before_init_completes(self):
        sim, clock, ntp = self._make()
        ntp.start()
        sim.run_for(2.9)
        assert ntp.residual_error is None

    def test_init_takes_three_to_five_seconds(self):
        """Paper: 'generally take between 3-5 seconds'."""
        for seed in range(30):
            sim, clock, ntp = self._make(seed)
            delay = ntp.start()
            assert 3.0 <= delay <= 5.0
            sim.run_for(5.01)
            assert ntp.residual_error is not None

    def test_residual_error_in_paper_band(self):
        """Paper: 'within 1-20 msecs of each other'."""
        for seed in range(50):
            sim, clock, ntp = self._make(seed)
            ntp.sync_now()
            assert ntp.residual_error is not None
            assert 0.001 <= abs(ntp.residual_error) <= 0.020

    def test_utc_accuracy_after_sync(self):
        for seed in range(20):
            sim, clock, ntp = self._make(seed)
            ntp.start()
            sim.run_for(6.0)
            error = ntp.utc() - sim.now
            # Residual plus a sliver of skew drift since sync.
            assert abs(error) < 0.021

    def test_utc_before_sync_returns_raw(self):
        sim, clock, ntp = self._make()
        assert ntp.utc() == clock.raw()

    def test_residual_sign_varies(self):
        signs = set()
        for seed in range(40):
            sim, clock, ntp = self._make(seed)
            ntp.sync_now()
            signs.add(np.sign(ntp.residual_error))
        assert signs == {1.0, -1.0}

    def test_two_nodes_within_forty_ms(self):
        """Any two synced nodes agree within the sum of their residuals."""
        sim = Simulator()
        rng = np.random.default_rng(7)
        services = []
        for _ in range(5):
            clock = Clock.random(sim, rng)
            ntp = NTPService(sim, clock, rng)
            ntp.sync_now()
            services.append(ntp)
        sim.run_for(100.0)
        readings = [s.utc() for s in services]
        assert max(readings) - min(readings) < 0.042
