"""Rules about who may write a piece of state, kept by the AST.

* In ``discovery/requester.py`` a run's ``state`` is its open phase
  name.  It has two writers -- ``_begin_phase`` and the one function
  that closes a run, ``_close`` -- and the second, upper-case state
  vocabulary the module once carried beside ``PHASE_NAMES`` stays gone.
* A node's ``_started`` flag is its own business: ``stop()`` clears it
  and ``start()`` sets it, so nothing under ``src/`` or ``tests/``
  reaches into another object to reset it before a restart.
* In ``discovery/replication.py`` a member's ``role`` has one writer,
  ``_become``, and a replication message's group is checked in one
  place -- where ``BDN._on_udp`` dispatches it -- not by each handler.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DISCOVERY = ROOT / "src" / "repro" / "discovery"
REQUESTER = DISCOVERY / "requester.py"
REPLICATION = DISCOVERY / "replication.py"
BDN = DISCOVERY / "bdn.py"

STATE_WRITERS = {"_begin_phase", "_close"}
OLD_STATES = ("ISSUING", "COLLECTING", "SELECTING", "PINGING", "DECIDING", "DONE", "FAILED")


def attribute_stores(tree: ast.AST, attr: str):
    """``(enclosing function name or None, node)`` for every place
    ``<something>.attr`` is assigned, augmented, deleted or otherwise bound."""

    def visit(node: ast.AST, function: str | None):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_run_state_has_two_writers():
    writers = {function for function, _ in attribute_stores(parse(REQUESTER), "state")}
    assert writers == STATE_WRITERS


def test_old_state_vocabulary_is_gone():
    source = REQUESTER.read_text(encoding="utf-8")
    found = re.findall(rf"\b(?:{'|'.join(OLD_STATES)})\b", source)
    assert found == []


def test_started_flag_is_only_written_by_its_owner():
    offenders = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for _, node in attribute_stores(parse(path), "_started"):
                owner = node.value
                if not (isinstance(owner, ast.Name) and owner.id == "self"):
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


def test_replication_role_has_one_writer():
    stores = [
        function
        for path in sorted(DISCOVERY.glob("*.py"))
        for function, _ in attribute_stores(parse(path), "role")
    ]
    assert stores == ["_become"]


def test_replication_group_is_checked_once():
    """``<x>.group`` compared with ``<y>.config.group``: one site, the
    BDN's dispatch."""
    sites = []
    for path in (REPLICATION, BDN):
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(op, ast.Attribute)
                and op.attr == "group"
                and isinstance(op.value, ast.Attribute)
                and op.value.attr == "config"
                for op in operands
            ):
                sites.append((path.name, node.lineno))
    assert [name for name, _ in sites] == ["bdn.py"]
