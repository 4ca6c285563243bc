"""Tests for the figure-regeneration CLI."""

from __future__ import annotations

import pytest

from repro.discovery.requester import DiscoveryClient
from repro.experiments.cli import TARGETS, main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "bouscat.cs.cf.ac.uk" in out
        assert "One-way latency matrix" in out

    def test_fig2_breakdown(self, capsys):
        assert main(["fig2", "--runs", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "wait_initial_responses" in out

    def test_fig12_multicast(self, capsys):
        assert main(["fig12", "--runs", "8"]) == 0
        out = capsys.readouterr().out
        assert "ONLY multicast" in out
        assert "Mean" in out

    def test_fig9_and_fig11(self, capsys):
        assert main(["fig9", "--runs", "6"]) == 0
        assert main(["fig11", "--runs", "6"]) == 0
        out = capsys.readouterr().out
        assert "star" in out and "linear" in out

    def test_per_site_figures(self, capsys):
        assert main(["fig3-7", "--runs", "6"]) == 0
        out = capsys.readouterr().out
        for site in ("tallahassee", "cardiff", "minneapolis", "urbana", "bloomington"):
            assert site in out

    def test_replication(self, capsys):
        assert main(["replication", "--runs", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Replication" in out
        assert "independent BDNs" in out
        assert "3-replica group" in out
        assert "elections" in out

    def test_replication_reports_a_discovery_that_never_completes(self, capsys, monkeypatch):
        # Heartbeats keep the scheduler busy for ever, so only a virtual
        # time cap ends an attempt whose outcome never arrives.
        monkeypatch.setattr(DiscoveryClient, "discover", lambda self, on_done: None)
        assert main(["replication", "--runs", "4", "--seed", "1"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        success = {" ".join(row[:2]): row[2] for row in rows[2:]}
        assert success == {"independent BDNs": "0.00", "3-replica group": "0.00"}

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_invalid_runs_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--runs", "0"])

    def test_target_list_is_complete(self):
        assert "all" in TARGETS
        assert "trace" in TARGETS
        assert "replication" in TARGETS
        assert "cluster_compare" in TARGETS
        assert "cluster_live" in TARGETS
        assert len(TARGETS) == 13
