"""Command lines: the driver contract and ``run`` / ``compare``.

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    the contract's JSON object; ``--record PATH`` also writes the full
    record (raw values, violations).  Exit code 1 when a correctness
    check fails.

``python -m benchmarks.roundbench run [--seed N[,N...]] [--workload NAME]``
    Every workload, each pass (``--trace 0``, then ``--trace 1``) in a
    fresh subprocess; prints every metric by name with its unit and
    writes the result set.

``python -m benchmarks.roundbench compare A B``
    See :mod:`.compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from . import catalog

__all__ = ["driver_main", "main"]

_RUN_PY = Path(__file__).resolve().with_name("run.py")
_EXTRA_SETUPS = 2
_CHILD_TIMEOUT = 170.0


def _contract_line(record: dict, metrics: tuple[catalog.Metric, ...]) -> str:
    """The contract's JSON object: exactly four keys, every metric of
    the pass by name with its unit."""
    values = record["metrics"]
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": max(1, int(record["attempted"])),
            "failed": int(record["failed"]),
            "metrics": {
                m.name: {"value": float(values[m.name]), "unit": m.unit} for m in metrics
            },
        }
    )


def _spawn(args: list[str]) -> dict:
    """Run ``run.py`` with ``args``; its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, str(_RUN_PY), *args],
        capture_output=True,
        text=True,
        timeout=_CHILD_TIMEOUT,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"run.py {' '.join(args)} printed nothing:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def _determinism_violation(seed: int) -> str | None:
    """A small sim world run twice in-process must repeat exactly."""
    from .workloads import SimStar

    runs = []
    for _ in range(2):
        workload = SimStar(seed, scale=0.05)
        workload.setup()
        workload.prepare(0)
        runs.append(workload.segment(0).sim_ms)
    if runs[0] != runs[1]:
        return "a small sim world run twice gave different latency lists for one seed"
    return None


def driver_main(argv: list[str], started: float, ops_at_start: float) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Run one roundbench workload; the last stdout line is JSON."
    )
    parser.add_argument("--workload", choices=tuple(catalog.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.FULL_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record to this path")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit (a set-up sample)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from . import runner

    if args.setup_only:
        setup_s, setup_s_raw = runner.setup_only(
            args.workload, args.seed, args.seconds, started, ops_at_start
        )
        print(json.dumps({"setup_s": setup_s, "setup_s_raw": setup_s_raw}))
        return 0

    if args.trace == 0:
        record = runner.run_untraced(args.workload, args.seed, args.seconds, started, ops_at_start)
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--setup-only"]
        samples = [(record["metrics"]["setup_s"], record["raw"]["setup_s_raw"])]
        for _ in range(_EXTRA_SETUPS):
            extra = _spawn(base)
            samples.append((extra["setup_s"], extra["setup_s_raw"]))
        record["metrics"]["setup_s"] = statistics.median(s for s, _ in samples)
        record["raw"]["setup_s_raw"] = statistics.median(r for _, r in samples)
        record["raw"]["setup_s_samples"] = [s for s, _ in samples]
        violation = _determinism_violation(args.seed)
        if violation:
            record["violations"].append(violation)
            record["correct"] = False
        metrics = catalog.END_TO_END
    else:
        from .micro import run_micro

        record = runner.run_traced(args.workload, args.seed, args.seconds)
        record["metrics"].update(run_micro(args.seconds / catalog.FULL_SECONDS))
        metrics = catalog.PER_LAYER
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for violation in record["violations"]:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    print(_contract_line(record, metrics))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# ``python -m benchmarks.roundbench``
# ---------------------------------------------------------------------------


def _print_record(record: dict, metrics: tuple[catalog.Metric, ...]) -> None:
    print(f"\n== {record['workload']}  (seed {record['seed']}, trace {record['trace']}, "
          f"{'correct' if record['correct'] else 'INCORRECT'}) ==")
    for metric in metrics:
        value = record["metrics"][metric.name]
        print(f"  {metric.name:<52}{value:>16.6g} {metric.unit}")
    for violation in record["violations"]:
        print(f"  VIOLATION: {violation}")


def _run_command(args: argparse.Namespace) -> int:
    out_dir = Path(args.out).resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(catalog.WORKLOADS)
    scratch = out_dir / f".record-{os.getpid()}.json"
    records: list[dict] = []
    failed = False

    def child(extra: list[str]) -> dict | None:
        nonlocal failed
        try:
            result = _spawn([*extra, "--seconds", str(args.seconds), "--record", str(scratch)])
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"FAILED: run.py {' '.join(extra)}: {exc}", file=sys.stderr)
            failed = True
            return None
        record = json.loads(scratch.read_text())
        scratch.unlink()
        failed = failed or result["exit_code"] != 0 or not record["correct"]
        records.append(record)
        return record

    for seed in args.seed:
        for name in workloads:
            for trace, metrics in ((0, catalog.END_TO_END), (1, catalog.PER_LAYER)):
                record = child(["--workload", name, "--seed", str(seed), "--trace", str(trace)])
                if record:
                    _print_record(record, metrics)
    Path(args.out).write_text(
        json.dumps({"seconds": args.seconds, "seeds": args.seed, "runs": records}, indent=1) + "\n"
    )
    print(f"\nwrote {args.out}" + ("  (FAILED: see above)" if failed else ""))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.roundbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload, print and write every metric")
    run.add_argument("--seed", type=lambda text: [int(s) for s in text.split(",")], default=[1],
                     help="one seed, or a comma-separated list: one result per seed")
    run.add_argument("--workload", choices=tuple(catalog.WORKLOADS))
    run.add_argument("--seconds", type=float, default=float(catalog.FULL_SECONDS))
    run.add_argument("--out", default="roundbench_out/results.json")
    compare = commands.add_parser("compare", help="compare two result sets")
    compare.add_argument("a")
    compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args)
    from .compare import main as compare_main

    return compare_main(args.a, args.b)
