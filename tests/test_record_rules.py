"""Wire messages and the records read off them never change once built.

Every message in ``core/messages.py``, ``UsageMetrics``,
``selection.Candidate`` and ``requester.CachedTarget`` is a plain
``@dataclass(slots=True)``: ``frozen=True`` made each field of each
construction an ``object.__setattr__`` call, and a discovery round
builds dozens of them.  What ``frozen`` promised is kept here instead,
by the AST, over ``src/``, ``benchmarks/``, ``examples/`` and
``tests/``:

* no store, augmented store or ``del`` of one of those classes' field
  names on anything but ``self`` or ``cls`` -- a forwarded or re-stamped
  message is a new object (a constructor or ``dataclasses.replace``),
  so one object fanned out to many recipients is never changed under
  them;
* no call of ``setattr`` or ``object.__setattr__``, which would say the
  same store without naming the field.

A hit that is none of these records' business is listed in ``KEPT``
with the reason; a ``KEPT`` entry that no longer matches anything fails
too, so the table cannot outlive its sites.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.core.messages import WIRE_MESSAGE_TYPES, Message
from repro.core.metrics import UsageMetrics
from repro.discovery.requester import CachedTarget
from repro.discovery.selection import Candidate

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "benchmarks", "examples", "tests")

RECORDS = (Message, *WIRE_MESSAGE_TYPES, UsageMetrics, Candidate, CachedTarget)
FIELDS = frozenset(f.name for cls in RECORDS for f in dataclasses.fields(cls))
OWNERS = frozenset({"self", "cls"})

#: ``(path, field name or setter)`` -> why the hit is not a record write.
KEPT = {
    ("src/repro/obs/recorder.py", "seq"): (
        "a span record's own emission number, not ReplicaAppend.seq"
    ),
    ("benchmarks/roundbench/tracer.py", "setattr"): (
        "the benchmark's tracer swaps functions on modules and classes and "
        "forwards its proxy's stores; it never touches a message"
    ),
    ("benchmarks/roundbench/tracer.py", "object.__setattr__"): (
        "the tracer's proxy sets its own slots past its forwarding __setattr__"
    ),
}


def setter_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "setattr":
        return "setattr"
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    ):
        return "object.__setattr__"
    return None


def record_writes(tree: ast.AST):
    """``(name, line)`` of every field store on a foreign object and every setter call."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.attr in FIELDS
            and not (isinstance(node.value, ast.Name) and node.value.id in OWNERS)
        ):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Call):
            name = setter_name(node)
            if name is not None:
                yield name, node.lineno


def hits() -> dict[tuple[str, str], list[int]]:
    found: dict[tuple[str, str], list[int]] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            relative = path.relative_to(ROOT).as_posix()
            for name, line in record_writes(tree):
                found.setdefault((relative, name), []).append(line)
    return found


def test_no_record_is_written_after_construction():
    offenders = {
        f"{path}:{line} {name}"
        for (path, name), lines in hits().items()
        if (path, name) not in KEPT
        for line in lines
    }
    assert sorted(offenders) == []


def test_every_kept_site_still_exists():
    assert sorted(set(KEPT) - set(hits())) == []


def test_the_rule_sees_a_store_and_a_setter():
    tree = ast.parse(
        "response.metrics = m\n"
        "request.hop_count += 1\n"
        "del ad.ttl\n"
        "object.__setattr__(request, 'attempt', 2)\n"
        "setattr(request, 'attempt', 2)\n"
        "self.metrics = m\n"
        "run.state = s\n"
    )
    assert list(record_writes(tree)) == [
        ("metrics", 1),
        ("hop_count", 2),
        ("ttl", 3),
        ("object.__setattr__", 4),
        ("setattr", 5),
    ]
