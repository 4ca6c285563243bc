#!/usr/bin/env python3
"""Entry point of the benchmark contract (see ``BENCHMARK.json``).

    python3 benchmarks/roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload and prints one JSON object as the last line of
standard output.  Set-up time is measured from this file's first line.
"""

import os
import sys
import time

_STARTED = time.perf_counter()

# String hashing is randomised per process, and with it every dict's
# collision pattern.  Eight interleaved pairs of sim_replicated runs of
# one seed spread 9.3 % in discoveries_per_s with it on and 2.4 % with
# it off.  Measure one fixed layout, not a draw per run.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])


def main() -> int:
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root), str(root / "src")]
    # The calibrator imports nothing heavy: spin once before the imports
    # that set-up time is about.
    from benchmarks.roundbench.calib import spin

    ops_at_start = spin()
    from benchmarks.roundbench.cli import driver_main

    return driver_main(sys.argv[1:], _STARTED, ops_at_start)


if __name__ == "__main__":
    raise SystemExit(main())
