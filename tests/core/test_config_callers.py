"""Knob lint: every configuration field has a caller, or a stated reason.

A field of a record in :mod:`repro.core.config`, of
:class:`~repro.experiments.scenarios.ScenarioSpec` or of
:class:`~repro.cluster.spec.ClusterSpec`, is a setting only if
code outside ``tests/`` sets it.  A value nobody sets is a constant in
the module that reads it.  This scans ``src/``, ``benchmarks/`` and
``examples/`` and counts as setting a field:

* a keyword (or positional) argument to the record's constructor, to a
  ``ScenarioSpec`` classmethod, or to ``cls(...)`` inside the record;
* a keyword argument to ``replace(...)`` / ``dataclasses.replace(...)``
  (the record is not resolved: the keyword counts for every record that
  has a field of that name);
* a key of a dict passed with ``**``: a ``dict(...)`` or ``{...}``
  assigned to that name in any scanned file (``ChaosWorld.REPLICATION``),
  or a ``name.setdefault("key", ...)`` / ``name["key"] = ...`` in the
  calling function (``ScenarioSpec.linear``).

A field with no caller fails the lint unless :data:`KEPT` lists it with
the reason it stays.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import repro.core.config as config_module
from repro.cluster.spec import ClusterSpec
from repro.experiments.scenarios import ScenarioSpec

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples")

RECORDS: dict[str, type] = {
    name: getattr(config_module, name)
    for name in config_module.__all__
    if dataclasses.is_dataclass(getattr(config_module, name))
}
RECORDS["ScenarioSpec"] = ScenarioSpec
RECORDS["ClusterSpec"] = ClusterSpec

#: Fields that stay although nothing outside ``tests/`` sets them.
KEPT: dict[str, str] = {
    "BrokerConfig.dedup_capacity": "paper section 4: the 1000-entry UUID dedup cache",
    "ResponsePolicyConfig.allowed_realms": 'paper section 5: "pre-defined network realms"',
    "BrokerConfig.advertise": 'paper section 2.3: "not all brokers need to register"',
    "BDNConfig.interest_regions": "paper section 2.3: a BDN interested in one region only",
    "BrokerConfig.service": (
        "the broker half of the overload layer (PROTOCOL.md 'Responder "
        "suppression'); response_suppress_depth needs it"
    ),
    "BrokerConfig.response_suppress_depth": (
        "the broker half of the overload layer, exercised by "
        "tests/discovery/test_overload.py"
    ),
    "ScenarioSpec.jitter_sigma": (
        "tests/event_parity.py --golden-worlds (a tool CI's perf job runs) turns "
        "WAN jitter off for the exact-fabric parity"
    ),
    "ClusterSpec.bind_ip": "deployment setting: the address every worker binds and dials",
    "ClusterSpec.ports": "deployment setting: the real OS ports assign_ports() fills in",
}


def _fields(record: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(record))


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dict_keys(value: ast.expr) -> set[str]:
    """Keys of a ``dict(k=...)`` call or a ``{"k": ...}`` literal."""
    if isinstance(value, ast.Call) and _callee(value.func) == "dict":
        return {k.arg for k in value.keywords if k.arg is not None}
    if isinstance(value, ast.Dict):
        return {
            k.value for k in value.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }
    return set()


def _sources() -> list[tuple[str, ast.Module]]:
    return [
        (str(path.relative_to(ROOT)), ast.parse(path.read_text(encoding="utf-8")))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    ]


def _named_dicts(sources: list[tuple[str, ast.Module]]) -> dict[str, set[str]]:
    """Every ``NAME = dict(...)`` / ``NAME = {...}`` in the scanned files."""
    named: dict[str, set[str]] = {}
    for _path, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                keys = _dict_keys(node.value)
                name = _callee(node.targets[0])
                if keys and name:
                    named.setdefault(name, set()).update(keys)
    return named


def _local_keys(function: ast.AST, name: str) -> set[str]:
    """String keys a function stores into its local dict ``name``."""
    keys: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and _callee(node.func.value) == name
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            keys.add(node.args[0].value)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and _callee(node.value) == name
            and isinstance(node.slice, ast.Constant)
        ):
            keys.add(node.slice.value)
    return keys


def _record_of(call: ast.Call, klass: str | None) -> str | None:
    """The record whose fields ``call``'s arguments name, if any."""
    name = _callee(call.func)
    if name in RECORDS:
        return name
    if name == "cls" and klass in RECORDS:
        return klass
    if isinstance(call.func, ast.Attribute) and _callee(call.func.value) == "ScenarioSpec":
        return "ScenarioSpec"  # a paper-default classmethod
    return None


def set_fields() -> dict[str, set[str]]:
    """``{"Record.field": {files that set it}}``."""
    sources = _sources()
    named = _named_dicts(sources)
    found: dict[str, set[str]] = {}

    def mark(record: str, field_name: str | None, path: str) -> None:
        if field_name in _fields(RECORDS[record]):
            found.setdefault(f"{record}.{field_name}", set()).add(path)

    def visit(node: ast.AST, klass: str | None, function: ast.AST | None, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, function, path)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, klass, child, path)
                continue
            visit(child, klass, function, path)
            if not isinstance(child, ast.Call):
                continue
            if _callee(child.func) == "replace":
                for keyword in child.keywords:
                    for record in RECORDS:
                        mark(record, keyword.arg, path)
                continue
            record = _record_of(child, klass)
            if record is None:
                continue
            if _callee(child.func) in (record, "cls"):
                for field_name, _arg in zip(_fields(RECORDS[record]), child.args):
                    mark(record, field_name, path)
            for keyword in child.keywords:
                if keyword.arg is not None:
                    mark(record, keyword.arg, path)
                    continue
                keys = set(named.get(_callee(keyword.value) or "", ()))
                if function is not None and isinstance(keyword.value, ast.Name):
                    keys |= _local_keys(function, keyword.value.id)
                for key in keys:
                    mark(record, key, path)

    for path, tree in sources:
        visit(tree, None, None, path)
    return found


ALL_FIELDS = tuple(
    f"{record}.{field_name}" for record, cls in RECORDS.items() for field_name in _fields(cls)
)


def test_every_field_has_a_caller_or_a_reason():
    callers = set_fields()
    orphans = [name for name in ALL_FIELDS if name not in callers and name not in KEPT]
    assert not orphans, (
        f"no code outside tests/ sets {orphans}: make each a constant where it "
        "is read, or list it in KEPT with the reason it stays"
    )


def test_kept_rows_are_live():
    """A KEPT row names a real field that still has no caller."""
    callers = set_fields()
    for name, reason in KEPT.items():
        assert name in ALL_FIELDS, f"KEPT names no field: {name}"
        assert name not in callers, f"{name} is set by {sorted(callers[name])}; drop its KEPT row"
        assert reason


def test_lint_sees_each_kind_of_caller():
    """One field per counting rule, so a broken rule cannot pass silently."""
    callers = set_fields()
    # A keyword to the constructor.
    assert "examples/secure_discovery.py" in callers["BrokerConfig.response_policy"]
    # A ScenarioSpec classmethod keyword, and cls(...) inside the record.
    assert "ScenarioSpec.per_hop_loss" in callers
    assert "src/repro/experiments/scenarios.py" in callers["ScenarioSpec.use_bdn"]
    # A setdefault key of the **kw a classmethod forwards.
    assert "src/repro/experiments/scenarios.py" in callers["ScenarioSpec.register"]
    # A dict assigned to a name and passed with **.
    assert "src/repro/cluster/spec.py" in callers["ReplicationConfig.lease_duration"]
