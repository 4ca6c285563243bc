"""Every literal event name emitted under ``src/`` must be registered.

The sink validates a name the first time it is emitted, but a typo on a
path no test drives would only surface in production; this greps the
one emission call form and checks the literals against the one
registry, :data:`repro.obs.events.EVENTS`.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.obs.events import EVENTS, UnknownEventError, is_causal

SRC = Path(__file__).resolve().parents[2] / "src"

#: An emission call (``self.emit("name"``, ``self.obs.emit("name"``)
#: whose first argument is a string literal.  Whitespace may include a
#: line break after the opening parenthesis.
_CALL = re.compile(r"[.\w_]\.emit\(\s*(['\"])([a-z0-9_]+)\1")


def _emission_sites() -> list[tuple[Path, str]]:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _CALL.finditer(text):
            sites.append((path.relative_to(SRC), match.group(2)))
    return sites


def test_sources_exist_to_grep():
    assert SRC.is_dir()
    assert _emission_sites(), "no emission call sites found -- regex rotted?"


def test_every_emitted_event_name_is_registered():
    unknown = sorted(
        {f"{path}: {name!r}" for path, name in _emission_sites() if name not in EVENTS}
    )
    assert not unknown, (
        "unregistered event names emitted (add them to repro/obs/events.py):\n  "
        + "\n  ".join(unknown)
    )


def test_no_other_emission_call_form_survives():
    # One way to say what happened: the two old spellings are gone.
    old = re.compile(r"\.(?:trace|span|record)\(\s*['\"][a-z0-9_]+['\"]")
    stragglers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "baselines" not in path.parts and old.search(path.read_text(encoding="utf-8"))
    )
    assert not stragglers


def test_span_sites_reach_broad_coverage():
    # Causal events instrument every discovery engine; if they stop
    # being emitted from several modules the grep would go quiet
    # without failing, so pin a floor on coverage.
    causal_sites = {path for path, name in _emission_sites() if EVENTS.get(name)}
    assert len(causal_sites) >= 5, f"causal emissions found only in {sorted(causal_sites)}"


def test_every_registered_name_is_emitted_somewhere():
    # ... and the registry carries no dead vocabulary.  (A quoted
    # literal anywhere counts: a few names are chosen by a conditional
    # expression or passed through a helper.)
    registry = SRC / "repro" / "obs" / "events.py"
    text = "".join(
        p.read_text(encoding="utf-8") for p in SRC.rglob("*.py") if p != registry
    )
    assert not sorted(name for name in EVENTS if f'"{name}"' not in text)


def test_vocabularies_do_not_overlap():
    # One dict, so a name has exactly one kind: 10 causal steps beside
    # 76 plain facts.
    assert sum(EVENTS.values()) == 10
    assert len(EVENTS) - sum(EVENTS.values()) == 76


def test_check_span_event_contract():
    assert is_causal("send") is True
    assert is_causal("request_sent") is False  # a plain name, not causal
    with pytest.raises(UnknownEventError):
        is_causal("sennd")
    # The steps folded into the facts they restated are gone.
    for folded in ("respond", "suppressed", "shed", "busy", "done", "leader_elected", "cold_restart"):
        with pytest.raises(UnknownEventError):
            is_causal(folded)


def _emit_name(node: ast.AST) -> str | None:
    """``name`` if ``node`` is a ``….emit("name", …)`` call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ):
        return node.args[0].value
    return None


def _placement(call: ast.Call, parents: dict) -> list[tuple[list, int]]:
    """Each statement list enclosing ``call`` inside its function,
    outermost first, with the index of the statement that holds it."""
    chain = []
    node = call
    while not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        parent = parents[node]
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(parent, field, None)
            if isinstance(block, list) and node in block:
                chain.append((block, block.index(node)))
        node = parent
    return chain[::-1]


def _adjacent(first: list[tuple[list, int]], second: list[tuple[list, int]]) -> bool:
    """Whether one path through a function runs both placements with no
    exit and no other emission between them."""
    for depth, ((a_block, a), (b_block, b)) in enumerate(zip(first, second)):
        if a_block is not b_block:
            return False  # two branches of one statement
        if a != b:
            early, late = (first, second) if a < b else (second, first)
            between = a_block[min(a, b) + 1 : max(a, b)]
            between += [s for block, i in early[depth + 1 :] for s in block[i + 1 :]]
            between += [s for block, i in late[depth + 1 :] for s in block[:i]]
            return not any(
                isinstance(s, (ast.Return, ast.Raise, ast.Continue, ast.Break))
                or any(_emit_name(n) for n in ast.walk(s))
                for s in between
            )
    return True


def test_no_fact_is_emitted_twice_as_a_step_and_a_fact():
    # One fact, one event: a plain fact about a traced request carries
    # the request's trace id itself.  A causal step with trace id ``X``
    # emitted next to a plain fact carrying ``request=X`` says the same
    # thing twice, under two names and two counters.
    twins = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            steps, facts = [], []
            for call in ast.walk(function):
                name = _emit_name(call)
                if name not in EVENTS:
                    continue
                if EVENTS[name] and len(call.args) > 1:
                    steps.append((name, ast.dump(call.args[1]), call))
                facts += [
                    (name, ast.dump(k.value), call)
                    for k in call.keywords
                    if not EVENTS[name] and k.arg == "request"
                ]
            twins += [
                f"{path.relative_to(SRC)}:{s_call.lineno}: {step!r} + {fact!r}"
                for step, trace, s_call in steps
                for fact, request, f_call in facts
                if trace == request
                and _adjacent(_placement(s_call, parents), _placement(f_call, parents))
            ]
    assert not twins, "a fact emitted twice (fold the step into the fact):\n  " + "\n  ".join(twins)


def test_protocol_doc_lists_the_whole_vocabulary():
    # docs/PROTOCOL.md "Observability" carries the vocabulary as one
    # table (name | kind | emitted by | marks); it must be the registry.
    doc = (SRC.parent / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    documented: dict[str, bool] = {}
    for row in re.finditer(r"^\| (`[a-z_`/ ]+`) \| (plain|causal) \|", doc, re.MULTILINE):
        for name in re.findall(r"`([a-z_]+)`", row.group(1)):
            documented[name] = row.group(2) == "causal"
    assert documented == EVENTS
