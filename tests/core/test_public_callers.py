"""Surface lint: every public function and method has a caller, or a stated reason.

A ``def`` in ``src/`` whose name does not start with ``_`` -- a module
function, or a method (property included) of a module-level class -- is
public surface.  It has a caller if its name appears as a word in
``src/``, ``examples/`` or ``benchmarks/`` more often than it is defined
in ``src/``.  A call, an attribute read, a bound method handed on, even
a docstring mention counts: the scan is by word, not by resolved call,
so it is coarse, but whatever it flags is named nowhere outside
``tests/`` except by its own ``def``.  Surface only tests call is a
setter or accessor nothing needs (the fault setters ``Network`` lost to
the shared fault table were such surface).

A def with no caller fails the lint unless :data:`KEPT` lists it with
the reason it stays.  The sibling lint for configuration fields is
``tests/core/test_config_callers.py``.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples")
_WORD = re.compile(r"\b[A-Za-z_]\w*\b")

#: Public defs that stay although nothing outside ``tests/`` names them.
KEPT: dict[str, str] = {
    "BDN.announce_to_network": (
        'paper section 2.4: a new BDN "must advertise its services to brokers"; '
        "ROADMAP 5(d): stays only if an example drives it"
    ),
    "DiscoveryClient.watch_selected": (
        "paper section 7: reconnect when the selected broker fails; ROADMAP 5(d): "
        "stays only if an example drives it"
    ),
    "ReliableSubscriber.request_history": (
        "paper introduction: replays are a substrate service; ROADMAP 5(d): "
        "stays only if an example drives it"
    ),
    "Clock.true_time": "the skew tests' oracle (its docstring: assertions only)",
    "AioRuntime.real_address": "the read side of map_endpoint; ROADMAP 5(d)",
    "DistanceOracle.reset_probes": "ROADMAP 5(d)",
    "Pinger.sample_count": "ROADMAP 5(d)",
    "Pinger.known_keys": "ROADMAP 5(d)",
    "NTPService.synchronized": "ROADMAP 5(d)",
    "NTPService.residual_error": "ROADMAP 5(d)",
    "Simulator.queue_size": "ROADMAP 5(d)",
    "TimerWheel.tick_of": "ROADMAP 5(d)",
    "ContentRouting.link_interests": "ROADMAP 5(d)",
    "EventArchive.latest_seq": "ROADMAP 5(d)",
    "SubscriptionManager.patterns_of": "ROADMAP 5(d)",
    "SubscriptionManager.subscriber_count": "ROADMAP 5(d)",
}


def _texts() -> dict[str, str]:
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def public_defs(source: str) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of each public def in one module."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            members = [(f"{node.name}.", item) for item in node.body]
        else:
            members = [("", node)]
        for prefix, item in members:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                found.append((prefix + item.name, item.name))
    return found


def uncalled(texts: dict[str, str]) -> dict[str, str]:
    """``{qualified name: file}`` of the public defs in ``src/`` no scanned file names."""
    words = Counter(word for text in texts.values() for word in _WORD.findall(text))
    defs = {
        path: public_defs(text) for path, text in texts.items() if path.startswith("src/")
    }
    defined = Counter(name for found in defs.values() for _qualified, name in found)
    return {
        qualified: path
        for path, found in defs.items()
        for qualified, name in found
        if words[name] <= defined[name]
    }


def test_every_public_def_has_a_caller_or_a_reason():
    orphans = sorted(name for name in uncalled(_texts()) if name not in KEPT)
    assert not orphans, (
        f"nothing outside tests/ names {orphans}: delete each, make it private, "
        "or list it in KEPT with the reason it stays"
    )


def test_kept_rows_are_live():
    """A KEPT row names a real public def that still has no caller."""
    texts = _texts()
    every = {q for path, text in texts.items() if path.startswith("src/") for q, _ in public_defs(text)}
    orphans = uncalled(texts)
    for name, reason in KEPT.items():
        assert name in every, f"KEPT names no public def: {name}"
        assert name in orphans, f"{name} has a caller now; drop its KEPT row"
        assert reason


def test_lint_sees_a_new_uncalled_method():
    """A public method added with no caller is flagged; a called one, a
    private one and one a benchmark calls are not."""
    texts = _texts()
    texts["src/repro/probe_module.py"] = (
        "class Probe:\n"
        "    def probe_only_tests_call(self):\n"
        "        return self._probe_private()\n"
        "    def _probe_private(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def probe_benchmark_reads(self):\n"
        "        return 2\n"
        "def probe_helper():\n"
        "    return Probe().probe_only_tests_call\n"
    )
    texts["benchmarks/probe_bench.py"] = "print(Probe().probe_benchmark_reads)\n"
    orphans = uncalled(texts)
    assert orphans["probe_helper"] == "src/repro/probe_module.py"
    assert "Probe.probe_only_tests_call" not in orphans  # probe_helper names it
    assert "Probe.probe_benchmark_reads" not in orphans
    assert "Probe._probe_private" not in orphans
    del texts["src/repro/probe_module.py"], texts["benchmarks/probe_bench.py"]
    texts["src/repro/runtime/hosts.py"] += (
        "\n    def probe_new_accessor(self) -> int:\n        return len(self._hosts)\n"
    )
    assert uncalled(texts)["Hosts.probe_new_accessor"] == "src/repro/runtime/hosts.py"
