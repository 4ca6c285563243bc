"""The trace CLI target, end to end, under both runtimes.

The acceptance bar for the observability subsystem: one traced
discovery request yields a complete, causally-ordered, cross-node
timeline whose per-phase shares agree with the requester's own
:class:`~repro.discovery.phases.PhaseTimer` within one percentage
point.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments.trace_cli import AGREEMENT_BOUND, run_trace, trace_sim
from repro.obs import Observability
from repro.obs.timeline import assemble, complete_request_ids, phase_agreement


class TestSimTrace:
    @pytest.fixture(scope="class")
    def sim_trace(self):
        return trace_sim(seed=42, topology="star")

    def test_trace_is_complete_and_within_bound(self, sim_trace):
        ok, text, obs = sim_trace
        assert ok
        assert "within the 1-point bound" in text

    def test_timeline_spans_multiple_nodes(self, sim_trace):
        _, _, obs = sim_trace
        (trace_id,) = complete_request_ids(obs)
        timeline = assemble(obs, trace_id)
        assert timeline.is_complete()
        assert len(timeline.nodes()) >= 3  # client + bdn + brokers
        kinds = {e.event for e in timeline}
        assert {
            "request_sent", "recv", "inject", "discovery_response", "phase", "discover_done"
        } <= kinds

    def test_sim_agreement_is_exact(self, sim_trace):
        # Phase spans read the same virtual clock at the same call
        # sites as the PhaseTimer, so agreement is not just within the
        # bound -- it is exact.
        _, _, obs = sim_trace
        (trace_id,) = complete_request_ids(obs)
        scenario_events = [e for e in assemble(obs, trace_id) if e.event == "discover_done"]
        assert scenario_events, "run never closed"
        timeline = assemble(obs, trace_id)
        # Reconstruct reference percentages from the phase spans' own
        # durations: identical data, identical result.
        assert phase_agreement(timeline, timeline.phase_percentages()) == 0.0

    def test_trace_records_fates_for_every_broker(self, sim_trace):
        _, _, obs = sim_trace
        (trace_id,) = complete_request_ids(obs)
        fates = assemble(obs, trace_id).response_fates()
        assert fates  # at least one broker leg accounted for
        assert set(fates.values()) <= {"received", "late", "suppressed", "lost"}

    def test_run_trace_exit_code_and_prom_dump(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        code = run_trace(runtime="sim", seed=42, topology="star", prom_out=str(prom))
        assert code == 0
        out = capsys.readouterr().out
        assert "SimRuntime" in out
        assert "PhaseTimer cross-check" in out
        text = prom.read_text()
        assert "# TYPE repro_discovery_completed counter" in text
        assert "repro_discovery_phase" in text


class TestAioTelemetryHook:
    def test_aclose_freezes_the_snapshot(self):
        async def scenario():
            from repro.runtime.aio import AioRuntime

            rt = AioRuntime()
            obs = Observability.for_runtime(rt)
            rt.attach_observability(obs)
            obs.emit("send", "n0", "req-1", kind="DiscoveryRequest")
            obs.registry.counter("discovery.completed").inc()
            assert rt.telemetry is None  # nothing frozen until close
            await rt.aclose()
            return rt.telemetry

        telemetry = asyncio.run(scenario())
        assert telemetry is not None
        json.dumps(telemetry)  # artifact-ready
        assert telemetry["metrics"]["discovery.completed"]["value"] == 1
        assert telemetry["rings"]["n0"]["emitted"] == 1

    def test_unattached_runtime_keeps_telemetry_none(self):
        async def scenario():
            from repro.runtime.aio import AioRuntime

            rt = AioRuntime()
            await rt.aclose()
            return rt.telemetry

        assert asyncio.run(scenario()) is None


class TestAioTrace:
    def test_full_discovery_reconstructs_within_bound(self):
        # Real localhost sockets, wall clock: the same reconstruction
        # the CLI's --trace-runtime aio performs.
        from repro.experiments.trace_cli import trace_aio

        ok, text, obs = trace_aio(seed=42, timeout=30.0)
        assert ok, text
        (trace_id,) = complete_request_ids(obs)
        timeline = assemble(obs, trace_id)
        assert timeline.is_complete()
        assert len(timeline.nodes()) >= 3
        # Wall-clock noise allowed, but the 1-point bound must hold.
        assert f"within the {AGREEMENT_BOUND:.0f}-point bound" in text
