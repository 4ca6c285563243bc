"""Event-stream parity digests over the chaos harness and the golden worlds.

A refactor that claims "nothing moves" is checked by running this
script on the parent tree and on the change and comparing what it
prints::

    PYTHONPATH=src python tests/event_parity.py            # seeds 0-99
    PYTHONPATH=src python tests/event_parity.py --seeds 20 # a quick look

Every event that reaches the sink (``Observability.emit``: virtual
time, name, node, trace id, hop and details, in order) is folded into
one SHA-256, together with each discovery's outcome (``success``,
``via``, ``transmissions``, ``total_time``, request uuid, selected
broker), each run's violations and each chaos world's fault log
(``FaultInjector.injected``, so a change to *when* a fault applies
shows even where no emitted event moves).  ``run_chaos`` runs seeds
``0..N-1`` on three variants -- plain; ``kinds=STORM_KINDS,
overload=True``; ``replicated=True`` -- and the *running* digest and
event count are printed after each variant, so the first variant that
differs is the one to look at.  Each variant's line also carries the
total ``pinger.pings_sent`` of its worlds' BDNs, so a change to when a
BDN pings shows as a count, not only as a moved digest.

A change to what goes on the wire is explained instead with::

    PYTHONPATH=src python tests/event_parity.py --golden-worlds

It runs the star and linear golden worlds
(``tests/simnet/test_perf_determinism.py``) with jitter and loss off,
so one datagram more or less moves no other delivery, and prints per
world the events processed (in all, and per discovery), the BDN's and
the client's ``pings_sent``, a digest of the outcomes and a digest of
the kept log without ``PingRequest`` / ``PingResponse`` records.  A
change that only drops BDN pings keeps both digests and processes two
events fewer per ping dropped: the ping's delivery and its pong's.  A
change that only schedules the same pings with fewer events keeps both
digests and both ping counts.  The same mode then prints one line per
wire tag: the tag, its message class and the sha256 of the codec source
compiled for it (``linecache.getlines("<repro.core.codec Cls>")``), so
a change to the codec shows its code-generation diff, and a refactor of
it shows identical lines.

The file name keeps it out of pytest's collection: it is a tool, not a
test, and a full run takes minutes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import linecache
import sys

import repro.core.codec  # noqa: F401  (importing it compiles and registers each tag's source)
from repro.core.messages import WIRE_MESSAGE_TYPES
from repro.discovery import chaos
from repro.discovery.chaos import STORM_KINDS, run_chaos
from repro.experiments.scenarios import DiscoveryScenario, ScenarioSpec
from repro.obs.recorder import Observability

VARIANTS = (
    ("plain", {}),
    ("overload", {"kinds": STORM_KINDS, "overload": True}),
    ("replicated", {"replicated": True}),
)

GOLDEN_WORLDS = (("star", ScenarioSpec.star), ("linear", ScenarioSpec.linear))
_PING_RECORDS = frozenset({("kind", "PingRequest"), ("kind", "PingResponse")})


def _short(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def golden_worlds() -> None:
    """Print the exact-fabric traffic of the star and linear golden worlds,
    then the digest of each wire tag's compiled codec source."""
    for label, ctor in GOLDEN_WORLDS:
        spec = dataclasses.replace(ctor(seed=5), jitter_sigma=0.0, per_hop_loss=0.0)
        scenario = DiscoveryScenario(spec, keep_trace=True)
        outcomes = scenario.run(runs=3)
        sim = scenario.net.sim
        pings = (scenario.bdn.pinger.pings_sent, scenario.client.pinger.pings_sent)
        decided = (
            sim.now,
            [(o.success, o.total_time, o.via, o.transmissions) for o in outcomes],
            [o.selected.broker_id for o in outcomes if o.selected is not None],
        )
        kept = [
            (r.time, r.event, r.node, r.trace_id, r.detail)
            for r in scenario.net.obs.log
            if _PING_RECORDS.isdisjoint(r.detail)
        ]
        print(
            f"{label:<7} events {sim.events_processed} "
            f"({sim.events_processed / len(outcomes):.1f} per discovery)  "
            f"bdn pings {pings[0]}  client pings {pings[1]}  "
            f"outcomes {_short(decided)}  log without pings {_short(kept)}",
            flush=True,
        )
    for cls in WIRE_MESSAGE_TYPES:
        source = "".join(linecache.getlines(f"<repro.core.codec {cls.__name__}>"))
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        print(f"codegen {cls.kind:>2} {cls.__name__:<19} {digest}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="run seeds 0..N-1 (default 100)")
    parser.add_argument(
        "--golden-worlds",
        action="store_true",
        help="print the exact-fabric traffic of the star and linear golden worlds instead",
    )
    args = parser.parse_args(argv)
    if args.golden_worlds:
        golden_worlds()
        return 0

    digest = hashlib.sha256()
    events = 0
    original = Observability.emit

    def hashed_emit(self, event, node, trace_id="", hop=0, **detail):
        nonlocal events
        events += 1
        details = sorted((k, repr(v)) for k, v in detail.items())
        digest.update(repr((float(self._clock()), event, node, trace_id, hop, details)).encode())
        return original(self, event, node, trace_id, hop, **detail)

    built: list[chaos.ChaosWorld] = []
    original_world = chaos.ChaosWorld

    class CountedWorld(original_world):
        def __init__(self, *a, **kw) -> None:
            super().__init__(*a, **kw)
            built.append(self)

    Observability.emit = hashed_emit
    chaos.ChaosWorld = CountedWorld
    try:
        for label, kwargs in VARIANTS:
            flagged = 0
            bdn_pings = 0
            for seed in range(args.seeds):
                report = run_chaos(seed, **kwargs)
                flagged += not report.ok
                bdn_pings += sum(bdn.pinger.pings_sent for world in built for bdn in world.bdns)
                for world in built:
                    digest.update(repr(world.injector.injected).encode())
                built.clear()
                for outcome in report.outcomes:
                    selected = outcome.selected.broker_id if outcome.selected is not None else None
                    digest.update(repr((
                        outcome.success, outcome.via, outcome.transmissions,
                        outcome.total_time, outcome.request_uuid, selected,
                    )).encode())
                digest.update(repr(report.violations).encode())
            print(
                f"{label:<10} seeds 0-{args.seeds - 1}: running digest "
                f"{digest.hexdigest()[:16]}  events {events}  flagged seeds {flagged}  "
                f"bdn pings {bdn_pings}",
                flush=True,
            )
    finally:
        Observability.emit = original
        chaos.ChaosWorld = original_world
    return 0


if __name__ == "__main__":
    sys.exit(main())
