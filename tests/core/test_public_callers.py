"""Surface lints: every public def, and every defaulted parameter of one, has a caller.

A ``def`` in ``src/`` whose name does not start with ``_`` -- a module
function, or a method (property included) of a module-level class -- is
public surface.  It has a caller if its name is *used in code* in
``src/``, ``examples/`` or ``benchmarks/``: read or called as a name or
an attribute, or spelled as a whole string that code hands to
``getattr`` or a dispatch table.  An import does not count (an
``__init__.py`` re-export is one), nor does an ``__all__`` entry or a
docstring.  Surface only tests use is a setter or accessor nothing
needs (the fault setters ``Network`` lost to the shared fault table
were such surface).

A defaulted parameter of a public def or of a constructor is a setting
only if some call in those directories passes it: by keyword, by
position, through ``**kw`` that the caller's own callers fill, through
``super().__init__`` or through ``cls(...)``.  Calls are matched by
name (the method or class name), not resolved, so a parameter of any
def that shares a name with a called one counts as passed.  A value
nobody passes is a constant in the module that reads it.

A def or parameter with no caller fails unless its ``KEPT`` table lists
it with the reason it stays.  The sibling lint for configuration fields
is ``tests/core/test_config_callers.py``.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples")

#: Public defs that stay although nothing outside ``tests/`` uses them.
KEPT: dict[str, str] = {
    "Clock.true_time": "the skew tests' oracle (its docstring: assertions only)",
    "SubscriptionManager.subscribers_for": (
        "the reference sorted_subscribers_for is checked against (an unsorted set)"
    ),
    "AioRuntime.real_address": (
        "test seam: the aio tests dial or send raw bytes to the real socket "
        "an endpoint is mapped to"
    ),
    "Simulator.queue_size": (
        "leak probe: the garbage tests read the physical store, cancelled "
        "entries included, to show cancelled timers are compacted"
    ),
    "Pinger.sample_count": "probe: the ping and BDN tests read whether a pong landed",
    "NTPService.residual_error": "probe: the skew tests read the sync error it left",
    "ContentRouting.link_interests": (
        "probe: the content-routing tests read which interests crossed each link"
    ),
}

#: Defaulted parameters that stay although nothing outside ``tests/`` passes them.
KEPT_PARAMS: dict[str, str] = {
    "DiscoveryScenario(keep_trace)": "the golden-trace pins and tests/event_parity.py keep the log",
    "SloMonitor(clock)": "test seam: a fake clock for the window tests",
    "main(argv)": "test seam: the CLI tests run each entry point in-process",
    "run_chaos(kinds)": "the nightly storm sweep in ci.yml passes it",
    "run_chaos(overload)": "the nightly storm sweep in ci.yml passes it",
    "run_chaos(replicated)": "the nightly replicated sweep in ci.yml passes it",
    "BrokerNetwork.add_broker(multicast_enabled)": (
        "test seam: the requester-ladder tests put brokers on hosts without "
        "multicast (paper section 3's fallback rung)"
    ),
    "Hosts.register(realm)": "passed through the alias register_host on both runtimes",
    "Hosts.register(multicast_enabled)": (
        "passed through the alias register_host on both runtimes"
    ),
}


def _scanned(path: str) -> bool:
    return path.split("/", 1)[0] in SCANNED


def _sources() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _members(tree: ast.Module):
    """``(class or None, def)`` for each module function and class method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node


def public_defs(tree: ast.Module) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of each public def in one module."""
    return [
        (f"{klass.name}.{item.name}" if klass else item.name, item.name)
        for klass, item in _members(tree)
        if not item.name.startswith("_")
    ]


def _prose(tree: ast.Module) -> set[int]:
    """``id`` of every docstring and ``__all__`` string in ``tree``."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_callee(target) == "__all__" for target in targets):
                skipped.update(id(inner) for inner in ast.walk(node.value))
    return skipped


def used_names(trees: dict[str, ast.Module]) -> Counter:
    """How often each name is used in code (imports, ``__all__`` and docstrings aside)."""
    uses: Counter = Counter()
    for path, tree in trees.items():
        if not _scanned(path):
            continue
        prose = _prose(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in prose:
                    uses[node.value] += 1
    return uses


def uncalled(trees: dict[str, ast.Module]) -> dict[str, str]:
    """``{qualified name: file}`` of the public defs in ``src/`` no scanned code uses."""
    uses = used_names(trees)
    return {
        qualified: path
        for path, tree in trees.items()
        if path.startswith("src/")
        for qualified, name in public_defs(tree)
        if not uses[name]
    }


def test_every_public_def_has_a_caller_or_a_reason():
    orphans = sorted(name for name in uncalled(_sources()) if name not in KEPT)
    assert not orphans, (
        f"no code outside tests/ uses {orphans}: delete each, make it private, "
        "or list it in KEPT with the reason it stays"
    )


def test_kept_rows_are_live():
    """A KEPT row names a real public def that still has no caller."""
    trees = _sources()
    every = {q for path, tree in trees.items() if path.startswith("src/") for q, _ in public_defs(tree)}
    orphans = uncalled(trees)
    for name, reason in KEPT.items():
        assert name in every, f"KEPT names no public def: {name}"
        assert name in orphans, f"{name} has a caller now; drop its KEPT row"
        assert reason


def test_lint_sees_a_new_uncalled_method():
    """A public method added with no caller is flagged; a called one, a
    private one and one a benchmark calls are not."""
    trees = _sources()
    trees["src/repro/probe_module.py"] = ast.parse(
        "class Probe:\n"
        "    def probe_only_tests_call(self):\n"
        "        return self._probe_private()\n"
        "    def _probe_private(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def probe_benchmark_reads(self):\n"
        "        return 2\n"
        "    def probe_dispatched(self):\n"
        "        return 3\n"
        "def probe_helper():\n"
        "    return getattr(Probe(), 'probe_dispatched'), Probe().probe_only_tests_call\n"
    )
    trees["benchmarks/probe_bench.py"] = ast.parse("print(Probe().probe_benchmark_reads)\n")
    orphans = uncalled(trees)
    assert orphans["probe_helper"] == "src/repro/probe_module.py"
    assert "Probe.probe_only_tests_call" not in orphans  # probe_helper reads it
    assert "Probe.probe_dispatched" not in orphans  # a getattr string is a use
    assert "Probe.probe_benchmark_reads" not in orphans
    assert "Probe._probe_private" not in orphans


def test_lint_sees_through_reexports_and_docstrings():
    """A def named only by an ``__init__`` re-export, an ``__all__`` entry
    or a docstring has no caller."""
    trees = _sources()
    trees["src/repro/probe_module.py"] = ast.parse(
        '"""Module docs mention probe_documented."""\n'
        '__all__ = ["probe_exported"]\n'
        "def probe_exported():\n"
        "    return 1\n"
        "def probe_documented():\n"
        "    return 2\n"
    )
    trees["src/repro/probe_package/__init__.py"] = ast.parse(
        "from repro.probe_module import probe_exported\n"
        '__all__ = ["probe_exported"]\n'
        "def probe_user():\n"
        '    """Wraps probe_documented."""\n'
        "    return probe_user\n"
    )
    orphans = uncalled(trees)
    assert orphans["probe_exported"] == "src/repro/probe_module.py"
    assert orphans["probe_documented"] == "src/repro/probe_module.py"
    assert "probe_user" not in orphans


# -- parameters ---------------------------------------------------------------


def _defaulted(klass: ast.ClassDef | None, item: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """``(positional parameter names after self/cls, defaulted names)`` of one def."""
    spec = item.args
    positional = [arg.arg for arg in spec.posonlyargs + spec.args]
    if klass is not None and not any(_callee(d) == "staticmethod" for d in item.decorator_list):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(spec.defaults):] if spec.defaults else []
    defaulted += [arg.arg for arg, default in zip(spec.kwonlyargs, spec.kw_defaults) if default is not None]
    return positional, defaulted


def public_params(trees: dict[str, ast.Module]) -> list[tuple[str, str, list[str], str]]:
    """``(call name, qualified def, positional names, parameter)`` per defaulted
    parameter of a public def in ``src/``; a constructor is called by its class name."""
    found = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for klass, item in _members(tree):
            if klass is not None and item.name == "__init__":
                if klass.name.startswith("_"):
                    continue
                key = qualified = klass.name
            elif item.name.startswith("_"):
                continue
            else:
                key, qualified = item.name, f"{klass.name}.{item.name}" if klass else item.name
            positional, defaulted = _defaulted(klass, item)
            found.extend((key, qualified, positional, name) for name in defaulted)
    return found


def passed_arguments(trees: dict[str, ast.Module]) -> tuple[dict[str, set[str]], dict[str, float]]:
    """``({call name: keywords passed}, {call name: most positionals passed})``."""
    keywords: dict[str, set[str]] = {}
    positionals: dict[str, float] = {}
    forwards: list[tuple[str, str]] = []  # (function whose **kw is forwarded, callee)

    def record(call: ast.Call, keys: list[str], function: ast.AST | None, owner: str | None) -> None:
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        count = math.inf if starred else len(call.args)  # *args may fill any position
        kwarg = function.args.kwarg if function is not None else None
        for key in keys:
            positionals[key] = max(positionals.get(key, 0), count)
            for keyword in call.keywords:
                if keyword.arg is not None:
                    keywords.setdefault(key, set()).add(keyword.arg)
                elif kwarg is not None and _callee(keyword.value) == kwarg.arg:
                    name = owner if function.name == "__init__" else function.name
                    forwards.append((name, key))

    def visit(node: ast.AST, klass: ast.ClassDef | None, function: ast.AST | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, function)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, klass, child)
                continue
            visit(child, klass, function)
            if not isinstance(child, ast.Call):
                continue
            func = child.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call) and _callee(func.value.func) == "super":
                keys = [_callee(base) for base in klass.bases] if func.attr == "__init__" else [func.attr]
            elif _callee(func) == "cls" and klass is not None:
                keys = [klass.name]
            else:
                keys = [_callee(func)]
            record(child, [key for key in keys if key], function, klass.name if klass else None)

    for path, tree in trees.items():
        if _scanned(path):
            visit(tree, None, None)
    grew = True
    while grew:  # a keyword given to f(**kw) reaches every g(**kw) inside f
        grew = False
        for source, callee in forwards:
            new = keywords.get(source, set()) - keywords.get(callee, set())
            if new:
                keywords.setdefault(callee, set()).update(new)
                grew = True
    return keywords, positionals


def unpassed(trees: dict[str, ast.Module]) -> dict[str, int]:
    """``{"def(parameter)": count}`` of the defaulted parameters no scanned call passes."""
    keywords, positionals = passed_arguments(trees)
    missing: Counter = Counter()
    for key, qualified, positional, name in public_params(trees):
        by_position = name in positional and positionals.get(key, 0) > positional.index(name)
        if name not in keywords.get(key, ()) and not by_position:
            missing[f"{qualified}({name})"] += 1
    return dict(missing)


def test_every_defaulted_parameter_is_passed_or_has_a_reason():
    orphans = sorted(name for name in unpassed(_sources()) if name not in KEPT_PARAMS)
    assert not orphans, (
        f"no call outside tests/ passes {orphans}: make each a module constant "
        "with the same value, or list it in KEPT_PARAMS with the reason it stays"
    )


def test_kept_param_rows_are_live():
    """A KEPT_PARAMS row names a real defaulted parameter that nothing passes."""
    trees = _sources()
    every = {f"{qualified}({name})" for _key, qualified, _pos, name in public_params(trees)}
    orphans = unpassed(trees)
    for name, reason in KEPT_PARAMS.items():
        assert name in every, f"KEPT_PARAMS names no defaulted parameter: {name}"
        assert name in orphans, f"{name} is passed now; drop its KEPT_PARAMS row"
        assert reason


def test_param_lint_sees_each_kind_of_caller():
    """One parameter per counting rule, so a broken rule cannot pass silently,
    and one that only a test passes is flagged."""
    trees = _sources()
    trees["src/repro/probe_module.py"] = ast.parse(
        "class ProbeBase:\n"
        "    def __init__(self, by_super=1, by_cls=2, by_test=3):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(by_cls=3)\n"
        "class ProbeChild(ProbeBase):\n"
        "    def __init__(self, value):\n"
        "        super().__init__(value)\n"
        "def probe_target(a, by_position=1, by_keyword=2, by_forward=3, by_test=4):\n"
        "    return a\n"
        "def probe_forwarder(**kw):\n"
        "    return probe_target(0, **kw)\n"
        "def probe_caller():\n"
        "    probe_target(0, 1, by_keyword=5)\n"
        "    probe_forwarder(by_forward=6)\n"
    )
    trees["tests/probe_test.py"] = ast.parse(
        "probe_target(0, by_test=7)\nProbeBase(by_test=8)\n"
    )
    orphans = unpassed(trees)
    assert "probe_target(by_test)" in orphans
    assert "ProbeBase(by_test)" in orphans
    for seen in ("by_keyword", "by_position", "by_forward"):
        assert f"probe_target({seen})" not in orphans
    assert "ProbeBase(by_super)" not in orphans  # positionally, through super().__init__
    assert "ProbeBase(by_cls)" not in orphans
