"""Reach: which lines and defs of ``src/repro`` the end-to-end runs execute.

A def stays in ``src/`` because a real run enters it, not because some
code spells its name.  This tool runs every end-to-end driver of the
repository -- the parity tool, the paper-figure benchmarks, the
examples, every ``python -m repro.experiments`` target, the cluster's
smoke, soak, overload drill and ``top`` view, and each roundbench
workload -- under a line collector, and prints:

* reached and executable lines per module of ``src/repro``;
* every def no driver ever entered, with the ``KEPT`` reason it stays
  where it has one.

::

    python tests/reach.py          # run the drivers, print the tables (~5 min)
    python tests/reach.py --check  # also exit 1 on a def never entered outside KEPT

``--check`` fails when a def never entered is not exempt -- a dunder, a
protocol stub (a body of only a docstring and/or ``...``) or a ``KEPT``
row --, when a ``KEPT`` row names a def that is gone or was entered, and
when a driver exits with another code than its ``DRIVERS`` entry
expects.  A ``KEPT`` row is this tool's own or the surface lint's
(``tests/core/test_public_callers.py``), which keeps the public defs
only tests call; each reason is written once.  Two of this tool's rows
are fault paths (``AioRuntime._note_error``, ``invariants._no_evidence``):
a driven run enters one only when it went wrong, so the gate failing on
such a stale row names a real fault.

The collector: ``coverage`` is not a dependency and Python 3.11 has no
``sys.monitoring``, so a ``sitecustomize`` on ``PYTHONPATH`` installs a
``sys.settrace`` / ``threading.settrace`` collector in every Python
process a driver starts, cluster workers included.  A code object stops
being line-traced once each of its lines has run, which keeps the cost
to a few times the untraced run.  A process writes what it saw at exit
and on SIGTERM; a worker that handles SIGTERM itself (a cluster worker
drains) writes at its exit.  A SIGKILLed process writes nothing: what a
crashed cluster incarnation ran counts only because the incarnation
restarted after it runs the same code.  A ``raise`` that validates input
is a line no driver reaches, so line reach is a list to read; the gate
is on defs.

The cluster and roundbench drivers run for wall-clock time, so how far
they get depends on the host keeping up.  The BDN's prune, which only
roundbench's ``sim_registry_churn`` used to reach (after about 1 s),
has a seeded driver in the fault-tolerance example; with each roundbench
workload cut from 3 s to 1 s, ``--check`` still passed on a 2-core
x86-64 host under CPython 3.11.  Run the tool alone.

The file name keeps it out of pytest's collection: it is a tool, not a
test.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import importlib.util
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

_HEAP = (
    "the heap scheduler, the wheel's oracle: roundbench's micro rows import it and the "
    "nightly `bench_mega --compare` runs it; ROADMAP item 8(b) moves it into tests/simnet/"
)
_SHARDS = (
    "the flat store's API mirrored per shard, checked shard by shard in "
    "tests/discovery/test_sharding.py; ROADMAP item 8(a) decides whether sharding stays"
)
_LIVE_CONTRACT = (
    "the Runtime contract's live half: no driven live run calls it, "
    "tests/runtime/ do on both runtimes"
)
_DEDUP = (
    "the dedup LRU's write half and resets (SNIPPETS.md's idempotency cache), "
    "pinned by tests/core/test_dedup.py; no engine calls them"
)
_CODEC_ERROR = (
    "what decoding a truncated or malformed buffer raises: no driven run sends one, "
    "tests/core/test_codec_fuzz.py does"
)
_RESET = "test seam: empties a sink between assertions (tests/obs/test_recorder.py)"
_STRICT_READ = "probe: tests read a metric by name, and an unknown name raises instead of reading 0"

#: Defs no driver enters that stay, with the reason; the public defs only
#: tests call are the surface lint's ``KEPT`` (:func:`kept`).
KEPT: dict[str, str] = {
    "repro.simnet.simulator.Simulator._schedule_fire_heap": _HEAP,
    "repro.simnet.simulator.Simulator._schedule_fire_at_heap": _HEAP,
    "repro.simnet.simulator.Simulator._compact": _HEAP,
    "repro.simnet.simulator.Simulator._step_heap": _HEAP,
    "repro.core.codec.LazyMessage.request_uuid": (
        "lazy decode: roundbench's `lazy_key_us` row imports it; ROADMAP item 8(c) "
        "deletes it once the eager path is measured"
    ),
    "repro.core.codec._short": _CODEC_ERROR,
    "repro.core.codec._bad_utf8": _CODEC_ERROR,
    "repro.core.codec._bad_field": _CODEC_ERROR,
    "repro.core.dedup.DedupCache.capacity": (
        "probe: the dedup and sharding tests read each cache's bound"
    ),
    "repro.core.dedup.DedupCache.add": _DEDUP,
    "repro.core.dedup.DedupCache.discard": _DEDUP,
    "repro.core.dedup.DedupCache.clear": _DEDUP,
    "repro.discovery.sharding.ShardedDedup.shards": _SHARDS,
    "repro.discovery.sharding.ShardedDedup.misses": _SHARDS,
    "repro.discovery.sharding.ShardedDedup.add": _SHARDS,
    "repro.discovery.sharding.ShardedDedup.discard": _SHARDS,
    "repro.discovery.sharding.ShardedDedup.clear": _SHARDS,
    "repro.discovery.sharding.ShardedRegistry.shards": _SHARDS,
    "repro.core.ids.IdGenerator.spawn": (
        "derives an independent child id stream, pinned by tests/core/test_ids.py; "
        "a node seeds its own from the world rng"
    ),
    "repro.core.invariants._no_evidence": (
        "fault path: the verdict on a run that gathered no evidence, which no working run "
        "is; tests/core/test_invariants.py pins it"
    ),
    "repro.core.messages.traced": (
        "test seam: the codec trace tests mark a message by hand; a node marks one when it emits"
    ),
    "repro.discovery.responder.DiscoveryResponder.start": (
        "lifecycle: re-activates a responder after stop() or drain(); no driven run restarts "
        "one, tests/discovery/test_responder_lifecycle.py does"
    ),
    "repro.obs.profiling.SamplingProfiler.running": (
        "probe: the profiler tests read that the sampler thread stopped"
    ),
    "repro.obs.recorder.SpanEvent._key": (
        "the identity SpanEvent's __eq__ and __hash__ compare (dunders are exempt)"
    ),
    "repro.obs.recorder.FlightRecorder.clear": _RESET,
    "repro.obs.recorder.Observability.clear": _RESET,
    "repro.obs.recorder.Observability.events": (
        "probe: the recorder and node tests read kept records by name"
    ),
    "repro.obs.registry.MetricsRegistry.read": _STRICT_READ,
    "repro.obs.registry.MetricsRegistry.names": _STRICT_READ,
    "repro.runtime.aio.AioRuntime._note_error": (
        "fault path: a handler that raised on the live runtime, which no working run has; "
        "tests/runtime/ provoke one"
    ),
    "repro.runtime.aio.AioRuntime.schedule_at": _LIVE_CONTRACT,
    "repro.runtime.aio.AioRuntime._egress_socket": (
        _LIVE_CONTRACT + " (multicast from an unbound source)"
    ),
    "repro.runtime.aio.AioRuntime.multicast": (
        _LIVE_CONTRACT + "; paper section 3's zero-BDN fallback is driven on the simulator"
    ),
    "repro.runtime.hosts.Hosts.members": (
        "probe: the hosts contract and broker tests read multicast membership"
    ),
    "repro.simnet.loss.NoLoss.lost": (
        "the LossModel contract; a NoLoss draws nothing, so Network.send_udp skips the call"
    ),
    "repro.substrate.content_routing.ContentRouting.targets": (
        "the RoutingStrategy contract; a broker routes a content-aware strategy through "
        "targets_for_topic instead"
    ),
    "repro.substrate.reliable.EventArchive.streams": (
        "probe: the reliable-delivery tests read which streams the archive holds"
    ),
    "repro.substrate.topics.TopicTrie.patterns": (
        "oracle: the trie tests compare every stored (pattern, subscriber) pair with a model"
    ),
    "repro.substrate.topics.TopicTrie._walk": "the recursion of TopicTrie.patterns",
}

#: ``(label, argv after the interpreter, expected exit code)``; ``{tmp}`` is
#: a scratch directory.
DRIVERS: tuple[tuple[str, list[str], int], ...] = (
    ("event_parity golden worlds", ["tests/event_parity.py", "--golden-worlds"], 0),
    ("event_parity 20 seeds", ["tests/event_parity.py", "--seeds", "20"], 0),
    (
        "paper figures",
        ["-m", "pytest", "benchmarks/", "--ignore=benchmarks/roundbench", "-q",
         "-p", "no:cacheprovider"],
        0,
    ),
    ("example quickstart", ["examples/quickstart.py"], 0),
    ("example wan_discovery", ["examples/wan_discovery.py", "--runs", "10"], 0),
    ("example load_balancing", ["examples/load_balancing.py"], 0),
    ("example fault_tolerance", ["examples/fault_tolerance.py"], 0),
    ("example secure_discovery", ["examples/secure_discovery.py"], 0),
    ("example substrate_services", ["examples/substrate_services.py"], 0),
    (
        "example live_discovery",
        ["examples/live_discovery.py", "--timeout", "15",
         "--artifact", "{tmp}/live_artifact.json", "--telemetry", "{tmp}/live_telemetry.json"],
        0,
    ),
    ("experiments all", ["-m", "repro.experiments", "all", "--runs", "10"], 0),
    (
        "experiments trace",
        ["-m", "repro.experiments", "trace", "--trace-runtime", "both",
         "--prom-out", "{tmp}/metrics.prom"],
        0,
    ),
    ("runtime_compare", ["-m", "repro.experiments.runtime_compare", "{tmp}/live_artifact.json"], 0),
    (
        "experiments cluster_compare",
        ["-m", "repro.experiments", "cluster_compare", "--cluster-rounds", "10",
         "--cluster-workdir", "{tmp}/compare-run"],
        0,
    ),
    (
        "cluster smoke",
        ["-m", "repro.cluster", "smoke", "--profile-rate", "0", "--workdir", "{tmp}/smoke-run",
         "--summary", "{tmp}/smoke.json", "--timeline", "{tmp}/timeline.json"],
        0,
    ),
    (
        "experiments cluster_live",
        ["-m", "repro.experiments", "cluster_live", "--cluster-summary", "{tmp}/smoke.json"],
        0,
    ),
    (
        "cluster soak 20 s",
        ["-m", "repro.cluster", "soak", "--duration", "20", "--workdir", "{tmp}/soak-run",
         "--summary", "{tmp}/soak.json", "--flamegraph", "{tmp}/soak.collapsed",
         "--slo-trend", "{tmp}/soak_trend.json"],
        0,
    ),
    (
        "experiments cluster_live, soak",
        ["-m", "repro.experiments", "cluster_live", "--cluster-summary", "{tmp}/soak.json"],
        0,
    ),
    (
        "cluster overload drill",
        ["-m", "repro.cluster", "soak", "--duration", "8", "--mean-gap", "0.005",
         "--no-admission-control", "--profile-rate", "0", "--workdir", "{tmp}/drill-run",
         "--summary", "{tmp}/drill.json"],
        1,  # the drill's verdict names queue_overflow
    ),
    (
        "cluster top 5 s",
        ["-m", "repro.cluster", "top", "--duration", "5", "--workdir", "{tmp}/top-run"],
        0,
    ),
    *(
        (
            f"roundbench {workload}",
            ["-m", "benchmarks.roundbench", "run", "--workload", workload, "--seconds", "3",
             "--seed", "1", "--out", f"{{tmp}}/{workload}.json"],
            0,
        )
        for workload in (
            "sim_star", "sim_flash_crowd", "sim_registry_churn", "sim_replicated", "live_loopback"
        )
    ),
)

_SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_reach_collector", {tool!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.collect({out!r})
"""


# -- the collector (runs inside every driver process) -------------------------


def _lines(code) -> set[int]:
    """The lines a line event can report in one code object (a def's own line fires none)."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def collect(out_dir: str) -> None:
    """Trace this process's ``src/repro`` frames; write the hits at exit."""
    prefix = os.path.join(str(PACKAGE), "")
    left: dict = {}  # code -> its lines not yet run, or None outside the package
    possible: dict = {}  # code -> its lines a line event can report

    def local(frame, event, _arg):
        if event == "line":
            todo = left[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return local

    def trace(frame, _event, _arg):
        code = frame.f_code
        try:
            todo = left[code]
        except KeyError:
            todo = None
            if code.co_filename.startswith(prefix):
                possible[code] = frozenset(_lines(code))
                todo = set(possible[code])
            left[code] = todo
        return local if todo else None

    def dump() -> None:
        entered: list = []
        reached: dict[str, set[int]] = {}
        for code, lines in possible.items():
            entered.append((code.co_filename, code.co_firstlineno))
            reached.setdefault(code.co_filename, set()).update(lines - left[code])
        path = os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}.json")
        hits = {"entered": entered, "reached": {f: sorted(v) for f, v in reached.items()}}
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(hits, fh)
        os.replace(path + ".tmp", path)

    def on_sigterm(signum, _frame) -> None:
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    atexit.register(dump)
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, on_sigterm)
    threading.settrace(trace)
    sys.settrace(trace)


# -- the drivers --------------------------------------------------------------


def run_drivers(out_dir: str, tmp: str) -> list[tuple[str, int, int, float]]:
    """Run each driver with the collector installed.

    Returns ``(label, exit code, expected exit code, seconds)`` per driver.
    """
    site = os.path.join(tmp, "site")
    os.makedirs(site)
    with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(_SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()), out=out_dir))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([site, str(SRC), str(ROOT)]))
    results = []
    for label, argv, expected in DRIVERS:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        log = os.path.join(tmp, label.replace(" ", "_") + ".log")
        start = time.monotonic()
        with open(log, "w", encoding="utf-8") as out:
            code = subprocess.run(
                [sys.executable, *argv],
                cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT, timeout=900,
            ).returncode
        seconds = time.monotonic() - start
        results.append((label, code, expected, seconds))
        print(f"{label}: exit {code}, {seconds:.0f} s", file=sys.stderr, flush=True)
    return results


# -- the analysis -------------------------------------------------------------


def load_hits(out_dir: str) -> tuple[set[tuple[str, int]], dict[str, set[int]]]:
    """``(entered (file, first line) pairs, {file: reached lines})`` over every process."""
    entered: set[tuple[str, int]] = set()
    reached: dict[str, set[int]] = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            hits = json.load(fh)
        entered.update((os.path.realpath(f), line) for f, line in hits["entered"])
        for f, lines in hits["reached"].items():
            reached.setdefault(os.path.realpath(f), set()).update(lines)
    return entered, reached


def executable_lines(code) -> set[int]:
    """:func:`_lines` over a module and every code object in it."""
    lines = _lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def _is_stub(node: ast.AST) -> bool:
    """A protocol stub: a body of only a docstring and/or ``...``."""
    return all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
        for stmt in node.body
    )


def defs(tree: ast.Module, module: str):
    """``(qualified name, first line, body lines, exempt)`` for every def in a module.

    The qualified name is ``module.Class.def``; its part after the module
    (``Class.def``) is how the surface lint names a public def.
    """
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                body = child.end_lineno - child.body[0].lineno + 1
                dunder = child.name.startswith("__") and child.name.endswith("__")
                name = f"{module}.{prefix}{child.name}"
                found.append((name, first, body, dunder or _is_stub(child)))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def analyse(out_dir: str) -> dict:
    """Per-module line reach and the defs never entered."""
    entered, reached = load_hits(out_dir)
    modules, unentered = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        real = os.path.realpath(path)
        lines = executable_lines(compile(source, str(path), "exec"))
        modules.append((module, len(lines & reached.get(real, set())), len(lines)))
        for name, first, body, exempt in defs(ast.parse(source), module):
            if (real, first) not in entered:
                unentered.append((name, first, body, exempt))
    return {"modules": modules, "unentered": unentered}


def kept() -> dict[str, str]:
    """Every ``KEPT`` reason by qualified name: this tool's rows and the surface lint's."""
    spec = importlib.util.spec_from_file_location(
        "_surface_lint", ROOT / "tests" / "core" / "test_public_callers.py"
    )
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    reasons = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for name, *_ in defs(ast.parse(path.read_text(encoding="utf-8")), module):
            reason = lint.KEPT.get(name.removeprefix(module + "."))
            if reason is not None:
                reasons[name] = reason
    return {**reasons, **KEPT}


def report(result: dict, drivers: list[tuple[str, int, int, float]]) -> list[str]:
    """The three tables, as markdown; the last line is the gate's count."""
    out = ["| driver | exit | expected | seconds |", "|---|---:|---:|---:|"]
    out += [
        f"| {label} | {code} | {expected} | {seconds:.0f} |"
        for label, code, expected, seconds in drivers
    ]
    out += ["", "| module | reached | executable | % |", "|---|---:|---:|---:|"]
    total_hit = total = 0
    for module, hit, lines in result["modules"]:
        total_hit, total = total_hit + hit, total + lines
        out.append(f"| {module} | {hit} | {lines} | {100 * hit / max(lines, 1):.1f} |")
    out.append(f"| **total** | {total_hit} | {total} | {100 * total_hit / max(total, 1):.1f} |")
    out += ["", "| def never entered | line | body lines | stays because |", "|---|---:|---:|---|"]
    reasons = kept()
    for name, first, body, exempt in result["unentered"]:
        reason = "dunder or protocol stub" if exempt else reasons.get(name, "")
        out.append(f"| `{name}` | {first} | {body} | {reason} |")
    unentered = result["unentered"]
    exempt = sum(1 for *_, e in unentered if e)
    flagged = gated(result)
    out += [
        "",
        f"{len(unentered)} defs never entered: {exempt} dunders or stubs, "
        f"{len(unentered) - exempt - len(flagged)} KEPT, {len(flagged)} with no reason "
        f"({sum(body for name, _f, body, _e in unentered if name in flagged)} body lines).",
    ]
    return out


def gated(result: dict) -> list[str]:
    """The defs never entered that are neither exempt nor ``KEPT``."""
    reasons = kept()
    return [
        name for name, _f, _b, exempt in result["unentered"] if not exempt and name not in reasons
    ]


def stale_kept(result: dict) -> list[str]:
    """This tool's ``KEPT`` rows that name no def never entered.

    The surface lint's rows are its own to check: a public def a driver
    enters may still be one only tests call by name.
    """
    unentered = {name for name, *_ in result["unentered"]}
    return sorted(name for name in KEPT if name not in unentered)


def wrong_exits(drivers: list[tuple[str, int, int, float]]) -> list[str]:
    """The drivers that exited with another code than they are expected to."""
    return [label for label, code, expected, _s in drivers if code != expected]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 on a def never entered outside KEPT, a stale KEPT row or a driver's "
        "unexpected exit code",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        out_dir = os.path.join(tmp, "hits")
        os.makedirs(out_dir)
        drivers = run_drivers(out_dir, tmp)
        result = analyse(out_dir)
    print("\n".join(report(result, drivers)))
    stale = stale_kept(result)
    for name in stale:
        print(f"KEPT names no def left unentered: {name}", file=sys.stderr)
    wrong = wrong_exits(drivers)
    for label in wrong:
        print(f"driver exited with an unexpected code: {label}", file=sys.stderr)
    return 1 if args.check and (gated(result) or stale or wrong) else 0


if __name__ == "__main__":
    sys.exit(main())
