"""Every example script, and every complete README program, must run
clean end to end.

Examples double as executable documentation; this keeps them from
rotting.  Each runs in a subprocess with a reduced workload where the
script supports it.  A README ``python`` block that elides code with a
``# ...`` line is a fragment, not a program, and is not run.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"

CASES = [
    ("quickstart.py", []),
    ("wan_discovery.py", ["--runs", "10"]),
    ("load_balancing.py", []),
    ("fault_tolerance.py", []),
    ("secure_discovery.py", []),
    ("substrate_services.py", []),
]

#: Examples that bind real sockets and run on wall-clock time.  They are
#: exercised by the CI ``live-smoke`` job with a hard timeout, not here:
#: tier-1 stays deterministic and loopback-free.
LIVE_ONLY = {"live_discovery.py"}

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_ELISION = re.compile(r"^\s*# \.\.\.", re.M)


def readme_programs() -> list[str]:
    """The README's ``python`` blocks that are whole programs."""
    blocks = _PYTHON_BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    return [block for block in blocks if not _ELISION.search(block)]


RUNS = [(script, [str(EXAMPLES_DIR / script), *args]) for script, args in CASES] + [
    (f"README.md[{i}]", ["-c", program]) for i, program in enumerate(readme_programs())
]


@pytest.mark.parametrize("script,argv", RUNS, ids=[r[0] for r in RUNS])
def test_example_runs_clean(script, argv):
    result = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed\n--- stdout ---\n{result.stdout[-2000:]}"
        f"\n--- stderr ---\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_every_example_file_is_listed():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    listed = {script for script, _ in CASES}
    assert on_disk == listed | LIVE_ONLY, "update CASES when adding/removing examples"
