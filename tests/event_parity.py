"""Event-stream parity digests over the chaos harness.

A refactor that claims "nothing moves" is checked by running this
script on the parent tree and on the change and comparing what it
prints::

    PYTHONPATH=src python tests/event_parity.py            # seeds 0-99
    PYTHONPATH=src python tests/event_parity.py --seeds 20 # a quick look

Every event that reaches the sink (``Observability.emit``: virtual
time, name, node, trace id, hop and details, in order) is folded into
one SHA-256, together with each discovery's outcome (``success``,
``via``, ``transmissions``, ``total_time``, request uuid, selected
broker) and each run's violations.  ``run_chaos`` runs seeds
``0..N-1`` on three variants -- plain; ``kinds=STORM_KINDS,
overload=True``; ``replicated=True`` -- and the *running* digest and
event count are printed after each variant, so the first variant that
differs is the one to look at.

The file name keeps it out of pytest's collection: it is a tool, not a
test, and a full run takes minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from repro.discovery.chaos import STORM_KINDS, run_chaos
from repro.obs.recorder import Observability

VARIANTS = (
    ("plain", {}),
    ("overload", {"kinds": STORM_KINDS, "overload": True}),
    ("replicated", {"replicated": True}),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="run seeds 0..N-1 (default 100)")
    args = parser.parse_args(argv)

    digest = hashlib.sha256()
    events = 0
    original = Observability.emit

    def hashed_emit(self, event, node, trace_id="", hop=0, **detail):
        nonlocal events
        events += 1
        details = sorted((k, repr(v)) for k, v in detail.items())
        digest.update(repr((float(self._clock()), event, node, trace_id, hop, details)).encode())
        return original(self, event, node, trace_id, hop, **detail)

    Observability.emit = hashed_emit
    try:
        for label, kwargs in VARIANTS:
            flagged = 0
            for seed in range(args.seeds):
                report = run_chaos(seed, **kwargs)
                flagged += not report.ok
                for outcome in report.outcomes:
                    selected = outcome.selected.broker_id if outcome.selected is not None else None
                    digest.update(repr((
                        outcome.success, outcome.via, outcome.transmissions,
                        outcome.total_time, outcome.request_uuid, selected,
                    )).encode())
                digest.update(repr(report.violations).encode())
            print(
                f"{label:<10} seeds 0-{args.seeds - 1}: running digest "
                f"{digest.hexdigest()[:16]}  events {events}  flagged seeds {flagged}",
                flush=True,
            )
    finally:
        Observability.emit = original
    return 0


if __name__ == "__main__":
    sys.exit(main())
