"""Event-stream parity digests over the chaos harness and the golden worlds.

A refactor that claims "nothing moves" is checked by running this
script on the parent tree and on the change and comparing what it
prints::

    PYTHONPATH=src python tests/event_parity.py            # seeds 0-99
    PYTHONPATH=src python tests/event_parity.py --seeds 20 # a quick look

Every event that reaches the sink (``Observability.emit``: virtual
time, name, node, trace id, hop and details, in order) is folded into
one SHA-256 -- the script makes every sink :attr:`detailed`, so that a
fact a hot emitter would only count (``udp_deliver``) reaches ``emit``
too -- together with each discovery's outcome (``success``,
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

The same records pin seeds 0-19 of each variant in
``tests/simnet/golden_traces.json`` (``chaos_plain``,
``chaos_overload``, ``chaos_replicated``): per seed a ``schedule``
digest (events processed, virtual end time, fault log, outcomes,
violations), a ``log`` digest (a running sha256 over the records) and
``marks``, the first byte of that running digest after each record.
The tier-1 chaos sweeps check those seeds as they run them
(:func:`sweep_run`), and a moved pin names its variant, its seed and
its first moved record ``(time, event, node)``.  A pinned seed runs
twice there: recorded with a detailed sink for the pin, and with the
default sink for the sweep's own checks, whose outcomes and violations
must match the recorded run's.  This command is the
one that regenerates them::

    PYTHONPATH=src python tests/event_parity.py --seeds 20 --write-pins

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
test (the sweeps import :func:`sweep_run` from it), and a full run
takes minutes.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import functools
import hashlib
import json
import linecache
import sys
from pathlib import Path

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

#: Seeds 0..PINNED_SEEDS-1 of each variant are pinned in ``golden_traces.json``.
PINNED_SEEDS = 20
GOLDEN_PATH = Path(__file__).parent / "simnet" / "golden_traces.json"

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


class ChaosRecorder:
    """Keeps every sink event and every :class:`~repro.discovery.chaos.ChaosWorld`
    that :func:`~repro.discovery.chaos.run_chaos` builds while it is open.

    Opening it makes every sink :attr:`~Observability.detailed` and wraps
    :meth:`Observability.emit`, so each event becomes one record
    ``(time, event, node, trace id, hop, sorted repr'd details)`` in
    emission order; closing it restores both.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.worlds: list[chaos.ChaosWorld] = []

    def __enter__(self) -> ChaosRecorder:
        records, worlds = self.records, self.worlds
        self._saved = (Observability.emit, Observability.detailed, chaos.ChaosWorld)
        emit, _detailed, world_class = self._saved

        def recorded_emit(obs, event, node, trace_id="", hop=0, **detail):
            details = sorted((k, repr(v)) for k, v in detail.items())
            records.append((float(obs._clock()), event, node, trace_id, hop, details))
            return emit(obs, event, node, trace_id, hop, **detail)

        class RecordedWorld(world_class):
            def __init__(self, *a, **kw) -> None:
                super().__init__(*a, **kw)
                worlds.append(self)

        Observability.emit = recorded_emit
        Observability.detailed = property(lambda obs: True)
        chaos.ChaosWorld = RecordedWorld
        return self

    def __exit__(self, *exc) -> None:
        Observability.emit, Observability.detailed, chaos.ChaosWorld = self._saved

    def run(self, seed: int, **kwargs) -> chaos.ChaosReport:
        """``run_chaos(seed, **kwargs)`` with this seed's records and worlds kept
        (the previous seed's are dropped)."""
        self.records.clear()
        self.worlds.clear()
        return run_chaos(seed, **kwargs)

    def outcomes(self, report: chaos.ChaosReport) -> list[tuple]:
        return [
            (o.success, o.via, o.transmissions, o.total_time, o.request_uuid,
             o.selected.broker_id if o.selected is not None else None)
            for o in report.outcomes
        ]

    def pin(self, report: chaos.ChaosReport, marks: bool = True) -> dict:
        """The seed's pin: a ``schedule`` digest (events processed, end time,
        fault log, outcomes, violations), a ``log`` digest (a running sha256
        over the records) and ``marks``, the first byte of that running
        digest after each record, which locates the first moved record."""
        schedule = (
            [(w.sim.events_processed, w.sim.now, w.injector.injected) for w in self.worlds],
            self.outcomes(report),
            report.violations,
        )
        running = hashlib.sha256()
        after = bytearray()
        for record in self.records:
            running.update(repr(record).encode())
            if marks:
                after.append(running.digest()[0])
        pin = {"schedule": _short(schedule), "log": running.hexdigest()[:16]}
        if marks:
            pin["marks"] = base64.b64encode(bytes(after)).decode()
        return pin

    def moved(self, variant: str, seed: int, report: chaos.ChaosReport, golden: dict) -> str | None:
        """Why this seed's run differs from its pin in ``golden`` (the parsed
        ``golden_traces.json``), naming the variant, the seed and the first
        moved record; None when it does not."""
        want = golden[f"chaos_{variant}"]["per_seed"][seed]
        got = self.pin(report, marks=False)
        if got["log"] == want["log"]:
            if got["schedule"] == want["schedule"]:
                return None
            return f"{variant} seed {seed}: schedule moved, log unchanged"
        old = base64.b64decode(want["marks"])
        new = base64.b64decode(self.pin(report)["marks"])
        first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        if first < len(new):
            t, event, node = self.records[first][:3]
            where = f"record {first} (t={t:.6f}, {event}, {node})"
        else:
            where = f"record {first}: the log ends early"
        return f"{variant} seed {seed}: log moved at {where}; {len(new)} records, {len(old)} pinned"


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def sweep_run(variant: str, seed: int, moved: list[str]) -> chaos.ChaosReport:
    """One seed of a tier-1 chaos sweep: ``run_chaos`` with the variant's
    arguments and the default sink, whose report is returned.

    A pinned seed also runs once recorded, with every sink detailed, and
    is checked against its pin; the default run's outcomes and violations
    must equal the recorded run's, so the pin holds for the sink that
    production runs too.  What moved is appended to ``moved``."""
    kwargs = dict(VARIANTS)[variant]
    report = run_chaos(seed, **kwargs)
    if seed >= PINNED_SEEDS:
        return report
    with ChaosRecorder() as recorder:
        recorded = recorder.run(seed, **kwargs)
    why = recorder.moved(variant, seed, recorded, _golden())
    if why is None and (
        recorder.outcomes(report) != recorder.outcomes(recorded)
        or report.violations != recorded.violations
    ):
        why = f"{variant} seed {seed}: the default sink's outcomes or violations differ from the detailed sink's"
    if why is not None:
        moved.append(why)
    return report


def variant_pin(seed_pins: list[dict]) -> dict:
    """A variant's ``golden_traces.json`` entry from its seeds' pins, in seed order."""
    return {
        "seeds": len(seed_pins),
        "schedule": _short([p["schedule"] for p in seed_pins]),
        "log": _short([p["log"] for p in seed_pins]),
        "per_seed": seed_pins,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=100, help="run seeds 0..N-1 (default 100)")
    parser.add_argument(
        "--golden-worlds",
        action="store_true",
        help="print the exact-fabric traffic of the star and linear golden worlds instead",
    )
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help=f"also write seeds 0-{PINNED_SEEDS - 1} of each variant into {GOLDEN_PATH.name}",
    )
    args = parser.parse_args(argv)
    if args.golden_worlds:
        golden_worlds()
        return 0
    if args.write_pins and args.seeds < PINNED_SEEDS:
        parser.error(f"--write-pins needs --seeds {PINNED_SEEDS} or more")

    digest = hashlib.sha256()
    events = 0
    pins = {}
    with ChaosRecorder() as recorder:
        for label, kwargs in VARIANTS:
            flagged = 0
            bdn_pings = 0
            seed_pins = []
            for seed in range(args.seeds):
                report = recorder.run(seed, **kwargs)
                events += len(recorder.records)
                for record in recorder.records:
                    digest.update(repr(record).encode())
                if seed < PINNED_SEEDS:
                    seed_pins.append(recorder.pin(report))
                flagged += not report.ok
                bdn_pings += sum(bdn.pinger.pings_sent for w in recorder.worlds for bdn in w.bdns)
                for world in recorder.worlds:
                    digest.update(repr(world.injector.injected).encode())
                for outcome in recorder.outcomes(report):
                    digest.update(repr(outcome).encode())
                digest.update(repr(report.violations).encode())
            pins[f"chaos_{label}"] = variant_pin(seed_pins)
            print(
                f"{label:<10} seeds 0-{args.seeds - 1}: running digest "
                f"{digest.hexdigest()[:16]}  events {events}  flagged seeds {flagged}  "
                f"bdn pings {bdn_pings}",
                flush=True,
            )
    if args.write_pins:
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        golden.update(pins)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {', '.join(pins)} to {GOLDEN_PATH}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
