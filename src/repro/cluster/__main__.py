"""``python -m repro.cluster`` -- live cluster smoke, soak, and top runs.

``smoke``
    One seeded run sized for CI: spawn the full tier set, start the
    load replay, perform a staggered rolling restart of the replicated
    BDN group *while load is running*, then collect every worker's exit
    report, assert the soak invariants, and write the merged cluster
    timeline artifact.  Exits non-zero on any violation or lost report.

``soak``
    Duration-driven fault soak: the load schedule is sized to span
    ``--duration`` seconds and the injector keeps cycling rolling
    restarts and load storms until the load drains.  The streaming SLO
    monitor fails the soak fast -- a mid-run violation stops injection
    within one evaluation window instead of burning the remaining
    duration.  Writes a ``BENCH_cluster.json``-style summary.

``top``
    The soak with a live terminal dashboard: per-role rounds/s, shed/s,
    queue depth, breaker states, rolling p50/p99, and the SLO monitor's
    burn rate, redrawn every refresh interval from the streamed
    telemetry frames.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.cluster.coordinator import ClusterError, ClusterHarness
from repro.cluster.report import merged_cluster_snapshot, summarize
from repro.cluster.spec import ClusterSpec

__all__ = ["main"]

#: Seconds of heartbeat warm-up between "all workers ready" and load
#: start, so every broker is registered at the BDN tier before the
#: first discovery fires (two broker heartbeat intervals + slack).
WARMUP = 2.5


def _print_summary(summary: dict) -> None:
    lat = summary["latency"]
    print(
        f"rounds={summary['rounds']} failures={summary['failures']} "
        f"aborted={summary['aborted']} "
        f"p50={lat['p50'] * 1e3:.0f}ms p99={lat['p99'] * 1e3:.0f}ms"
    )
    for member, term, start, until in summary["leadership_intervals"]:
        print(f"  leader {member} term {term:g} held {until - start:.1f}s")
    for label in summary["reports_missing"]:
        print(f"  lost report: {label}")
    for violation in summary["violations"]:
        print(f"  VIOLATION: {violation}")
    slo = summary.get("slo")
    if slo:
        print(
            f"slo: {slo.get('windows_evaluated', 0)} windows evaluated, "
            f"{len(slo.get('violations', []))} live violation(s), "
            f"latency budget burned {slo.get('budget_burned', 0.0):.0%}"
        )
        for violation in slo.get("violations", []):
            print(
                f"  SLO VIOLATION [window {violation['window']}] "
                f"{violation['invariant']} ({violation['process']}): "
                f"{violation['detail']}"
            )


def _write_flamegraph(path: str, reports: list[dict]) -> None:
    """Write the load generator's collapsed stacks (fall back to any)."""
    profiled = [r for r in reports if r.get("profile", {}).get("collapsed")]
    profiled.sort(key=lambda r: (r.get("role") != "load", r.get("label", "")))
    if not profiled:
        print(f"flamegraph: no profiled worker produced samples, skipping {path}")
        return
    report = profiled[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report["profile"]["collapsed"]) + "\n")
    print(f"flamegraph ({report['label']}) -> {path}")


def _finish(harness: ClusterHarness, spec: ClusterSpec, args) -> int:
    harness.shutdown()
    live = harness.live.summary() if harness.live is not None else None
    reports, missing = harness.collect()
    summary = summarize(spec, reports, missing, harness.injector.injected, live=live)
    _print_summary(summary)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary -> {args.summary}")
    if args.timeline:
        with open(args.timeline, "w", encoding="utf-8") as fh:
            json.dump(merged_cluster_snapshot(reports), fh)
        print(f"merged timeline -> {args.timeline}")
    if getattr(args, "flamegraph", None):
        _write_flamegraph(args.flamegraph, reports)
    if getattr(args, "slo_trend", None) and live is not None:
        with open(args.slo_trend, "w", encoding="utf-8") as fh:
            json.dump(live.get("trend", []), fh, indent=2)
        print(f"slo trend -> {args.slo_trend}")
    slo_violations = live.get("violations", []) if live else []
    return 1 if summary["violations"] or missing or slo_violations else 0


def _build_spec(args, rounds: int) -> ClusterSpec:
    return ClusterSpec(
        n_bdns=args.bdns,
        n_brokers=args.brokers,
        n_clients=args.clients,
        seed=args.seed,
        rounds=rounds,
        mean_gap=args.mean_gap,
        telemetry_interval=args.telemetry_interval,
        slo_window=args.slo_window,
        admission_control=not args.no_admission_control,
        profile_rate=args.profile_rate,
    )


def _smoke(args) -> int:
    spec = _build_spec(args, args.rounds)
    harness = ClusterHarness(spec, args.workdir)
    harness.start()
    print(f"{len(spec.roles())} workers ready (workdir {args.workdir})")
    time.sleep(WARMUP)
    harness.start_load()
    # The restart runs while clients are mid-schedule: that overlap is
    # the point of the smoke -- discovery must survive it unharmed.
    harness.injector.rolling_restart(settle=args.settle)
    print("rolling restart of the BDN tier complete")
    done = harness.wait_load_done(timeout=args.load_timeout)
    print(f"load drained: {done['rounds']} rounds, {done['failures']} failures")
    return _finish(harness, spec, args)


def _slo_failed(harness: ClusterHarness, context: str) -> bool:
    """Fail-fast check: report any live SLO violations and say so."""
    if harness.live is None:
        return False
    violations = harness.live.violations
    if not violations:
        return False
    print(f"SLO monitor tripped {context}; stopping early:")
    for violation in violations:
        print(f"  SLO VIOLATION {violation.describe()}")
    return True


def _soak(args) -> int:
    rounds = max(1, int(args.duration / args.mean_gap))
    spec = _build_spec(args, rounds)
    harness = ClusterHarness(spec, args.workdir)
    harness.start()
    print(f"soak: {len(spec.roles())} workers, {rounds} rounds/client, ~{args.duration:.0f}s")
    time.sleep(WARMUP)
    harness.start_load()
    end = time.monotonic() + args.duration
    cycle = 0
    while time.monotonic() < end:
        cycle += 1
        try:
            harness.injector.storm(factor=3.0, duration=2.0)
            harness.injector.rolling_restart(settle=args.settle)
        except ClusterError as exc:
            print(f"soak cycle {cycle} fault injection failed: {exc}")
            break
        print(f"soak cycle {cycle}: storm + rolling restart done")
        if _slo_failed(harness, f"during soak cycle {cycle}"):
            return _finish(harness, spec, args)
        time.sleep(min(args.cycle_gap, max(0.0, end - time.monotonic())))
    # A soak is duration-driven, not schedule-driven: the load worker got
    # more rounds than the window can fit once per-round latency is paid,
    # so don't block on load_done -- shutdown drains the leftovers
    # gracefully and the reports carry every recorded round.
    try:
        done = harness.wait_load_done(timeout=15.0)
        print(f"load drained: {done['rounds']} rounds, {done['failures']} failures")
    except ClusterError:
        print("soak window closed with load still in flight; draining")
    return _finish(harness, spec, args)


def _top(args) -> int:
    """A soak-shaped run with a live redrawn terminal dashboard."""
    rounds = max(1, int(args.duration / args.mean_gap))
    spec = _build_spec(args, rounds)
    if spec.telemetry_interval <= 0:
        print("top needs streaming telemetry; set --telemetry-interval > 0")
        return 2
    harness = ClusterHarness(spec, args.workdir)
    harness.start()
    time.sleep(WARMUP)
    harness.start_load()
    end = time.monotonic() + args.duration
    done = None
    try:
        while time.monotonic() < end:
            # ANSI clear + home, then one dashboard frame.
            sys.stdout.write("\x1b[2J\x1b[H" + harness.live.render() + "\n")
            sys.stdout.flush()
            if _slo_failed(harness, "mid-run"):
                break
            try:
                done = harness.wait_load_done(timeout=args.refresh)
                break
            except ClusterError:
                continue  # refresh tick elapsed; redraw
    except KeyboardInterrupt:
        print("\ninterrupted; collecting reports")
    if done is not None:
        print(f"load drained: {done['rounds']} rounds, {done['failures']} failures")
    return _finish(harness, spec, args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.cluster", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workdir", default="cluster-run", help="reports + spec directory")
        p.add_argument("--bdns", type=int, default=3)
        p.add_argument("--brokers", type=int, default=4)
        p.add_argument("--clients", type=int, default=2)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--mean-gap", type=float, default=0.15, dest="mean_gap")
        p.add_argument("--settle", type=float, default=1.5, help="pause between BDN restarts")
        p.add_argument("--summary", default=None, help="write run summary JSON here")
        p.add_argument("--timeline", default=None, help="write merged timeline JSON here")
        p.add_argument(
            "--telemetry-interval",
            type=float,
            default=1.0,
            dest="telemetry_interval",
            help="seconds between streamed telemetry frames (0 disables)",
        )
        p.add_argument(
            "--slo-window",
            type=float,
            default=5.0,
            dest="slo_window",
            help="SLO monitor evaluation window, seconds",
        )
        p.add_argument(
            "--profile-rate",
            type=float,
            default=50.0,
            dest="profile_rate",
            help="sampling profiler rate in Hz on the load generator (0 = off)",
        )
        p.add_argument(
            "--flamegraph",
            default=None,
            help="write the load generator's collapsed-stack profile here",
        )
        p.add_argument(
            "--slo-trend",
            default=None,
            dest="slo_trend",
            help="write the per-window SLO trend JSON here",
        )
        p.add_argument(
            "--no-admission-control",
            action="store_true",
            dest="no_admission_control",
            help="disable BDN admission control (SLO violation-injection drill)",
        )

    smoke = sub.add_parser("smoke", help="one seeded run with a rolling restart")
    common(smoke)
    smoke.add_argument("--rounds", type=int, default=60, help="discoveries per client")
    smoke.add_argument("--load-timeout", type=float, default=90.0, dest="load_timeout")

    soak = sub.add_parser("soak", help="duration-driven fault soak")
    common(soak)
    soak.add_argument("--duration", type=float, default=300.0, help="soak seconds")
    soak.add_argument("--cycle-gap", type=float, default=5.0, dest="cycle_gap")

    top = sub.add_parser("top", help="soak with a live terminal dashboard")
    common(top)
    top.add_argument("--duration", type=float, default=60.0, help="run seconds")
    top.add_argument("--cycle-gap", type=float, default=5.0, dest="cycle_gap")
    top.add_argument("--refresh", type=float, default=1.0, help="redraw interval, seconds")

    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    if args.mode == "smoke":
        return _smoke(args)
    if args.mode == "top":
        return _top(args)
    return _soak(args)


if __name__ == "__main__":
    sys.exit(main())
