"""Surface lints: every public def, and every defaulted parameter of one, has a caller.

A ``def`` in ``src/`` whose name does not start with ``_`` -- a module
function, or a method (property included) of a module-level class -- is
public surface.  It has a caller if its name is *used in live code* in
``src/``, ``examples/`` or ``benchmarks/``: read or called as a name or
an attribute, or spelled as a whole string that code hands to
``getattr``/``hasattr``/``setattr`` or stores as a value of a dict
literal (a dispatch table).  An import does not count (an
``__init__.py`` re-export is one), nor does an ``__all__`` entry, a
docstring or any other string: a label that happens to spell a def's
name calls nothing.  Surface only tests use is a setter or accessor nothing
needs (the fault setters ``Network`` lost to the shared fault table
were such surface).

A ``self.x`` / ``cls.x`` use written in a class reaches that class's
``x`` (or its nearest base's in ``src/``) and every subclass override,
not a same-named def of another class; any other use reaches every def
of that name.  Module code, private defs, class bodies and everything
outside ``src/`` are live, and a public def is live once a use in live
code reaches it, so two defs that only call each other are both
flagged.  Which defs a real run enters is ``tests/reach.py``'s question.

A defaulted parameter of a public def or of a constructor is a setting
only if some call in those directories passes it: by keyword, by
position, through ``**kw`` that the caller's own callers fill, through
``super().__init__`` or through ``cls(...)``.  A ``self.x(...)`` call is
resolved to its class as above; any other call is matched by name (the
method or class name), so a parameter of any def that shares a name
with a called one counts as passed.  A value nobody passes is a
constant in the module that reads it.

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
    "Transport.leave_multicast": (
        "the Runtime contract's inverse of join_multicast; "
        "tests/runtime/hosts_contract.py pins it on both runtimes"
    ),
    "ClusterFaultInjector.crash": (
        "fault probe: the one drill of the lost-report path (a SIGKILLed worker "
        "sends no final frame), tests/cluster/test_harness_live.py"
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


#: Builtins whose second argument names an attribute.
_ATTRIBUTE_BUILTINS = frozenset({"getattr", "hasattr", "setattr"})

#: The names a method calls its own instance or class by.
_SELF = frozenset({"self", "cls"})

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _strings(nodes) -> list[str]:
    return [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]


class Hierarchy:
    """The module-level classes of ``src/``: what each defines, and its bases.

    Classes are keyed by name, as the qualified names of ``public_defs``
    are; a base that is not a ``src/`` class is left out.
    """

    def __init__(self, trees: dict[str, ast.Module]) -> None:
        self.defines: dict[str, set[str]] = {}
        self.bases: dict[str, set[str]] = {}
        for path, tree in trees.items():
            if not path.startswith("src/"):
                continue
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.defines.setdefault(node.name, set()).update(
                        item.name for item in node.body if isinstance(item, _DEFS)
                    )
                    bases = filter(None, map(_callee, node.bases))
                    self.bases.setdefault(node.name, set()).update(bases)
        self.children: dict[str, set[str]] = {}
        for klass, bases in self.bases.items():
            for base in bases:
                self.children.setdefault(base, set()).add(klass)

    def _walk(self, start: str, edges: dict[str, set[str]]) -> list[str]:
        order, stack, seen = [], [start], set()
        while stack:
            klass = stack.pop()
            if klass in seen or klass not in self.defines:
                continue
            seen.add(klass)
            order.append(klass)
            stack.extend(sorted(edges.get(klass, ()), reverse=True))
        return order

    def resolve(self, klass: str, name: str) -> list[str]:
        """The classes whose ``name`` a ``self.name`` written in ``klass`` can
        reach: the nearest of ``klass`` and its bases that defines it, and
        every subclass that overrides it."""
        owners = [c for c in self._walk(klass, self.bases) if name in self.defines[c]][:1]
        owners += [c for c in self._walk(klass, self.children)[1:] if name in self.defines[c]]
        return owners


def uses(trees: dict[str, ast.Module]) -> list[tuple[str | None, str | None, str]]:
    """``(context, class, name)`` per use of a name in code.

    A use is a name, an attribute, or a string given to
    ``getattr``/``hasattr``/``setattr`` or held as a dict literal's value.
    ``class`` is set for ``self.name`` / ``cls.name`` written in a method
    of that class (the use reaches what ``Hierarchy.resolve`` finds) and
    ``None`` for any other use (it reaches every def of that name).
    ``context`` is the public def of ``src/`` whose body holds the use, or
    ``None`` for module code, a private def, a class body and every file
    outside ``src/``.
    """
    found: list[tuple[str | None, str | None, str]] = []

    def visit(node: ast.AST, klass: str | None, context: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                found.append((context, None, child.id))
            elif isinstance(child, ast.Attribute):
                value = child.value
                own = klass if isinstance(value, ast.Name) and value.id in _SELF else None
                found.append((context, own, child.attr))
            elif isinstance(child, ast.Call) and _callee(child.func) in _ATTRIBUTE_BUILTINS:
                found.extend((context, None, name) for name in _strings(child.args[1:2]))
            elif isinstance(child, ast.Dict):
                found.extend((context, None, name) for name in _strings(child.values))
            visit(child, klass, context)

    for path, tree in trees.items():
        if not _scanned(path):
            continue
        src = path.startswith("src/")
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    public = src and isinstance(item, _DEFS) and not item.name.startswith("_")
                    visit(item, node.name, f"{node.name}.{item.name}" if public else None)
                for base in node.bases + node.decorator_list:
                    visit(base, None, None)
            elif isinstance(node, _DEFS):
                public = src and not node.name.startswith("_")
                visit(node, None, node.name if public else None)
            else:
                visit(node, None, None)
    return found


def uncalled(trees: dict[str, ast.Module]) -> dict[str, str]:
    """``{qualified name: file}`` of the public defs in ``src/`` no live code uses.

    Module code, private defs and everything outside ``src/`` is live; a
    public def is live once a use in live code reaches it.  A use inside
    a def that is not live keeps nothing alive, so two defs that only
    call each other are both flagged.
    """
    where: dict[str, str] = {}
    named: dict[str, list[str]] = {}
    for path, tree in trees.items():
        if path.startswith("src/"):
            for qualified, name in public_defs(tree):
                where[qualified] = path
                named.setdefault(name, []).append(qualified)
    hierarchy = Hierarchy(trees)
    reaches: dict[str | None, set[str]] = {}
    for context, klass, name in uses(trees):
        if klass is None:
            targets = named.get(name, ())
        else:
            targets = [f"{owner}.{name}" for owner in hierarchy.resolve(klass, name)]
        reaches.setdefault(context, set()).update(t for t in targets if t in where and t != context)
    live: set[str] = set()
    frontier = list(reaches.get(None, ()))
    while frontier:
        qualified = frontier.pop()
        if qualified not in live:
            live.add(qualified)
            frontier.extend(reaches.get(qualified, ()))
    return {qualified: path for qualified, path in where.items() if qualified not in live}


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
    """A public method added with no caller is flagged, and so is one only
    a plain label string spells; a called one, a private one, one a
    benchmark calls, one a getattr string names and one a dispatch table
    holds are not."""
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
        "    def probe_tabled(self):\n"
        "        return 4\n"
        "    def probe_labelled(self):\n"
        "        return 5\n"
        "TABLE = {'key': 'probe_tabled'}\n"
        "def probe_helper():\n"
        "    return 6\n"
        "def _probe_uses():\n"
        "    label = 'probe_labelled'\n"
        "    return getattr(Probe(), 'probe_dispatched'), Probe().probe_only_tests_call, label\n"
    )
    trees["benchmarks/probe_bench.py"] = ast.parse("print(Probe().probe_benchmark_reads)\n")
    orphans = uncalled(trees)
    assert orphans["probe_helper"] == "src/repro/probe_module.py"
    assert "Probe.probe_only_tests_call" not in orphans  # _probe_uses reads it
    assert "Probe.probe_dispatched" not in orphans  # a getattr string is a use
    assert "Probe.probe_tabled" not in orphans  # so is a dispatch-table value
    assert orphans["Probe.probe_labelled"] == "src/repro/probe_module.py"  # a label is not
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
        "    return 3\n"
        "HANDLER = probe_user\n"
    )
    orphans = uncalled(trees)
    assert orphans["probe_exported"] == "src/repro/probe_module.py"
    assert orphans["probe_documented"] == "src/repro/probe_module.py"
    assert "probe_user" not in orphans


def test_lint_sees_defs_that_only_call_each_other():
    """Two methods that each call only the other through ``self.``, and a
    function that only calls itself, are flagged; a ``self.`` use reaches
    the def of the writer's own class, its bases and its overrides, not a
    same-named def of an unrelated class."""
    trees = _sources()
    trees["src/repro/probe_module.py"] = ast.parse(
        "class ProbeView:\n"
        "    def probe_merged(self):\n"
        "        return self.probe_folded()\n"
        "    def probe_folded(self):\n"
        "        return self.probe_merged()\n"
        "    def probe_render(self):\n"
        "        return self.probe_hook()\n"
        "    def probe_hook(self):\n"
        "        return 1\n"
        "class ProbeChild(ProbeView):\n"
        "    def probe_hook(self):\n"
        "        return 2\n"
        "    def probe_child(self):\n"
        "        return self.probe_render()\n"
        "class ProbeOther:\n"
        "    def probe_render(self):\n"
        "        return 3\n"
        "def probe_recursive(n):\n"
        "    return probe_recursive(n - 1) if n else 0\n"
        "ProbeChild().probe_child()\n"
    )
    orphans = uncalled(trees)
    assert orphans["ProbeView.probe_merged"] == "src/repro/probe_module.py"
    assert orphans["ProbeView.probe_folded"] == "src/repro/probe_module.py"
    assert orphans["probe_recursive"] == "src/repro/probe_module.py"
    assert orphans["ProbeOther.probe_render"] == "src/repro/probe_module.py"
    for live in ("ProbeChild.probe_child", "ProbeView.probe_render", "ProbeView.probe_hook"):
        assert live not in orphans, live
    assert "ProbeChild.probe_hook" not in orphans  # an override a base's self. call reaches


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
    """``({call name: keywords passed}, {call name: most positionals passed})``.

    A ``self.x(...)`` / ``cls.x(...)`` call written in a class is keyed
    ``Class.x`` for each def ``Hierarchy.resolve`` finds, so it passes
    nothing to a same-named def of an unrelated class.
    """
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
                    if function.name == "__init__":
                        sources = [owner]
                    else:  # the def by name, and through self. when it is a method
                        sources = [function.name] + ([f"{owner}.{function.name}"] if owner else [])
                    forwards.extend((source, key) for source in sources)

    hierarchy = Hierarchy(trees)

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
            elif (
                isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in _SELF and klass is not None
                and (owners := hierarchy.resolve(klass.name, func.attr))
            ):
                keys = [f"{owner}.{func.attr}" for owner in owners]
            else:  # a bare call, or self.x holding some other object's callable
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
        most = max(positionals.get(key, 0), positionals.get(qualified, 0))
        by_position = name in positional and most > positional.index(name)
        passed = keywords.get(key, set()) | keywords.get(qualified, set())
        if name not in passed and not by_position:
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


def test_param_lint_resolves_self_calls_to_the_class():
    """A keyword a class passes to its own method through ``self.`` does not
    count for a same-named method of another class."""
    trees = _sources()
    trees["src/repro/probe_module.py"] = ast.parse(
        "class ProbeRunner:\n"
        "    def probe_run(self, gap=1):\n"
        "        return gap\n"
        "    def probe_go(self):\n"
        "        return self.probe_run(gap=2)\n"
        "class ProbeOtherRunner:\n"
        "    def probe_run(self, gap=1):\n"
        "        return gap\n"
        "ProbeRunner().probe_go(), ProbeOtherRunner().probe_run()\n"
    )
    orphans = unpassed(trees)
    assert "ProbeRunner.probe_run(gap)" not in orphans
    assert "ProbeOtherRunner.probe_run(gap)" in orphans
