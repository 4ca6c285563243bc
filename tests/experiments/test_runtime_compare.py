"""The sim-predicted reference run and the sim-vs-live table."""

from __future__ import annotations

import json

import pytest

from repro.experiments.report import runtime_table
from repro.experiments.runtime_compare import (
    REFERENCE_SCENARIO,
    load_artifact,
    main,
    simulate_reference,
)


@pytest.fixture(scope="module")
def reference():
    return simulate_reference(seed=5)


class TestSimulateReference:
    def test_completes_and_selects_a_broker(self, reference):
        assert reference["success"] is True
        assert reference["selected"] in {"b0", "b1", "b2"}
        assert reference["via"] == "bdn"
        assert reference["responses"] == ["b0", "b1", "b2"]

    def test_carries_comparison_keys(self, reference):
        assert reference["scenario"] == REFERENCE_SCENARIO
        assert reference["total_time"] > 0
        assert reference["phases"]  # at least one timed phase
        assert all(v >= 0 for v in reference["phases"].values())

    def test_is_deterministic(self, reference):
        again = simulate_reference(seed=5)
        assert again == reference

    def test_seed_changes_the_run(self, reference):
        other = simulate_reference(seed=6)
        assert other["total_time"] != reference["total_time"]


class TestRuntimeTable:
    def _live(self, reference, factor=2.0):
        return {
            "phases": {k: v * factor for k, v in reference["phases"].items()},
            "total_time": reference["total_time"] * factor,
            "selected": reference["selected"],
        }

    def test_rows_per_phase_plus_total(self, reference):
        out = runtime_table(reference, self._live(reference))
        lines = out.splitlines()
        assert lines[0] == "Discovery latency: simulated vs live"
        for phase in reference["phases"]:
            assert any(line.startswith(phase) for line in lines)
        assert any(line.startswith("total") for line in lines)
        assert any(line.startswith("selected broker") for line in lines)

    def test_ratio_column(self, reference):
        out = runtime_table(reference, self._live(reference, factor=2.0))
        total_line = next(line for line in out.splitlines() if line.startswith("total"))
        assert "2.00x" in total_line

    def test_missing_phase_renders_dash(self, reference):
        live = self._live(reference)
        live["phases"] = {"only_live_phase": 0.001}
        out = runtime_table(reference, live)
        only_live = next(
            line for line in out.splitlines() if line.startswith("only_live_phase")
        )
        assert "-" in only_live


class TestArtifactCli:
    def test_load_artifact_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_artifact(path)

    def test_main_prints_the_table(self, reference, tmp_path, capsys):
        artifact = {
            "phases": reference["phases"],
            "total_time": reference["total_time"],
            "selected": reference["selected"],
            "sim_reference": {"scenario": REFERENCE_SCENARIO, "seed": 5},
        }
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Discovery latency: simulated vs live" in out
        assert "Live/Sim" in out
