"""Command-line interface for regenerating the paper's results.

``python -m repro.experiments <target>`` re-runs one evaluation artifact
and prints its table, without going through pytest:

.. code-block:: console

   $ python -m repro.experiments table1
   $ python -m repro.experiments fig2
   $ python -m repro.experiments fig3-7 --runs 60
   $ python -m repro.experiments fig12
   $ python -m repro.experiments all

The pytest benchmarks in ``benchmarks/`` remain the canonical,
assertion-checked reproduction; this CLI is the quick look.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.experiments.report import comparison_table, metric_table, percentage_table
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.experiments.stats import paper_sample, summarize

__all__ = ["main"]

_SITES = ["tallahassee", "cardiff", "minneapolis", "urbana", "bloomington"]


def _table1() -> str:
    from repro.topology.sites import PAPER_SITES, paper_latency_model, paper_site_names

    lines = ["Table 1 -- machines/sites used in the testing process (simulated)"]
    lines.append(f"{'site':<14}{'machine':<28}{'region':<16}location")
    for site in PAPER_SITES:
        machine = site.machine or "(client/BDN site)"
        lines.append(f"{site.name:<14}{machine:<28}{site.region:<16}{site.location}")
    model = paper_latency_model(jitter_sigma=0.0)
    names = paper_site_names()
    lines.append("")
    lines.append("One-way latency matrix (ms):")
    lines.append(f"{'':<14}" + "".join(f"{n[:10]:>12}" for n in names))
    for a in names:
        lines.append(
            f"{a:<14}" + "".join(f"{model.base_delay(a, b) * 1000:>12.1f}" for b in names)
        )
    return "\n".join(lines)


def _breakdown(kind: str, runs: int, seed: int) -> str:
    spec = {
        "fig2": ScenarioSpec.unconnected,
        "fig9": ScenarioSpec.star,
        "fig11": ScenarioSpec.linear,
    }[kind](seed=seed)
    scenario = DiscoveryScenario(spec)
    outcomes = scenario.run(runs=runs)
    titles = {
        "fig2": "Figure 2 -- % per sub-activity (unconnected topology)",
        "fig9": "Figure 9 -- % per sub-activity (star topology)",
        "fig11": "Figure 11 -- % per sub-activity (linear topology)",
    }
    return percentage_table(scenario.mean_phase_percentages(outcomes), titles[kind])


def _per_site(runs: int, seed: int) -> str:
    blocks = []
    for number, site in zip(range(3, 8), _SITES):
        scenario = DiscoveryScenario(ScenarioSpec.unconnected(client_site=site, seed=seed))
        outcomes = scenario.run(runs=runs)
        kept = paper_sample(scenario.total_times_ms(outcomes), keep=100)
        blocks.append(
            metric_table(summarize(kept), f"Figure {number} -- discovery time, client in {site}")
        )
    return "\n\n".join(blocks)


def _multicast(runs: int, seed: int) -> str:
    scenario = DiscoveryScenario(
        ScenarioSpec.multicast_only(
            seed=seed, lab_sites=("bloomington", "indianapolis", "urbana")
        )
    )
    outcomes = scenario.run(runs=runs)
    kept = paper_sample(scenario.total_times_ms(outcomes), keep=100)
    return metric_table(summarize(kept), "Figure 12 -- discovery times using ONLY multicast")


def _crypto(which: str, runs: int, seed: int) -> str:
    from repro.core.messages import DiscoveryRequest
    from repro.security.certificates import CertificateAuthority, validate_chain
    from repro.security.envelope import open_envelope, seal
    from repro.security.rsa import generate_keypair

    rng = np.random.default_rng(seed)
    if which == "fig13":
        root = CertificateAuthority("root", bits=1024, rng=rng)
        inter = CertificateAuthority("inter", bits=1024, rng=rng, parent=root)
        cert = inter.issue("client", generate_keypair(1024, rng).public, 0.0, 1e9)
        trusted = {root.certificate.subject: root.certificate}

        def op() -> None:
            validate_chain(cert, [inter.certificate], trusted, now=1.0)

        title = "Figure 13 -- validating an X.509 certificate (ms, wall clock)"
    else:
        sender = generate_keypair(1024, rng)
        recipient = generate_keypair(1024, rng)
        request = DiscoveryRequest(
            uuid="cli-demo", requester_host="client.example", requester_port=7500
        )

        def op() -> None:
            open_envelope(
                seal(request, "client", sender.private, recipient.public, rng),
                recipient.private,
                sender.public,
            )

        title = "Figure 14 -- sign+encrypt+extract a BrokerDiscoveryRequest (ms, wall clock)"
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        op()
        samples.append((time.perf_counter() - start) * 1000.0)
    return metric_table(summarize(paper_sample(samples, keep=100)), title)


def _replication(runs: int, seed: int) -> str:
    from repro.core.errors import DiscoveryError
    from repro.discovery.chaos import ChaosAction, ChaosWorld, apply_schedule
    from repro.experiments.harness import run_discovery_once

    def measure(replicated: bool) -> dict[str, float]:
        world = ChaosWorld(seed, replicated=replicated)
        if replicated:
            victim = next(b for b in world.bdns if b.replication.is_leader())
        else:
            victim = world.bdns[0]
        start = world.sim.now + 0.05  # mid-first-discovery
        apply_schedule(
            world, (ChaosAction("kill_bdn", start, 6.0, targets=(victim.name,)),)
        )
        attempts = max(4, min(runs, 40))
        ok, times_ms = 0, []
        for _ in range(attempts):
            try:
                outcome = run_discovery_once(world.client)
            except DiscoveryError:  # wedged: a failed attempt, not a hang
                outcome = None
            if outcome is not None and outcome.success:
                ok += 1
                times_ms.append(outcome.total_time * 1000.0)
            world.sim.run_for(0.4)
        row = {
            "success %": 100.0 * ok / attempts,
            "mean ms": float(np.mean(times_ms)) if times_ms else float("nan"),
            "max ms": float(np.max(times_ms)) if times_ms else float("nan"),
        }
        if replicated:
            row["elections"] = float(
                sum(b.replication.elections_won for b in world.bdns)
            )
            row["leaders"] = float(
                sum(1 for b in world.bdns if b.replication.is_leader())
            )
        return row

    table = comparison_table(
        [
            ("independent BDNs", measure(False)),
            ("3-replica group", measure(True)),
        ],
        ["success %", "mean ms", "max ms", "elections", "leaders"],
        "Replication -- discovery under a BDN kill (leader killed in the "
        "replicated world)",
    )
    return table


TARGETS = (
    "table1", "fig2", "fig3-7", "fig9", "fig11", "fig12", "fig13", "fig14",
    "replication", "trace", "cluster_compare", "cluster_live", "all",
)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("target", choices=TARGETS, help="which artifact to regenerate")
    parser.add_argument("--runs", type=int, default=120, help="discovery runs per experiment")
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    trace_group = parser.add_argument_group("trace target")
    trace_group.add_argument(
        "--trace-runtime",
        choices=("sim", "aio", "both"),
        default="sim",
        help="which runtime(s) to reconstruct the traced request under",
    )
    trace_group.add_argument(
        "--topology",
        choices=("unconnected", "star", "linear"),
        default="star",
        help="simulated topology for the traced discovery",
    )
    trace_group.add_argument(
        "--prom-out", default=None, help="write Prometheus text metrics here"
    )
    cluster_group = parser.add_argument_group("cluster_compare target")
    cluster_group.add_argument(
        "--cluster-rounds",
        type=int,
        default=40,
        help="discoveries per client on each side of the comparison",
    )
    cluster_group.add_argument(
        "--cluster-workdir",
        default="cluster-run",
        help="directory for the live run's spec and worker reports",
    )
    live_group = parser.add_argument_group("cluster_live target")
    live_group.add_argument(
        "--cluster-summary",
        default="cluster_summary.json",
        help="summary JSON a `python -m repro.cluster` run wrote",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    if args.target == "cluster_compare":
        from repro.experiments.cluster_compare import run_cluster_compare

        return run_cluster_compare(
            seed=args.seed,
            rounds=args.cluster_rounds,
            workdir=args.cluster_workdir,
        )

    if args.target == "cluster_live":
        from repro.experiments.live_cli import run_cluster_live

        return run_cluster_live(summary_path=args.cluster_summary)

    if args.target == "trace":
        from repro.experiments.trace_cli import run_trace

        return run_trace(
            runtime=args.trace_runtime,
            seed=args.seed,
            topology=args.topology,
            prom_out=args.prom_out,
        )

    producers = {
        "table1": lambda: _table1(),
        "fig2": lambda: _breakdown("fig2", args.runs, args.seed),
        "fig3-7": lambda: _per_site(args.runs, args.seed),
        "fig9": lambda: _breakdown("fig9", args.runs, args.seed),
        "fig11": lambda: _breakdown("fig11", args.runs, args.seed),
        "fig12": lambda: _multicast(args.runs, args.seed),
        "fig13": lambda: _crypto("fig13", args.runs, args.seed),
        "fig14": lambda: _crypto("fig14", args.runs, args.seed),
        "replication": lambda: _replication(args.runs, args.seed),
    }
    targets = list(producers) if args.target == "all" else [args.target]
    for i, name in enumerate(targets):
        if i:
            print()
        print(producers[name]())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
