"""Every literal event name emitted under ``src/`` must be registered.

The sink validates a name the first time it is emitted, but a typo on a
path no test drives would only surface in production; this greps the
one emission call form and checks the literals against the one
registry, :data:`repro.obs.events.EVENTS`.
"""

from __future__ import annotations

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
    # One dict, so a name has exactly one kind; the sizes are the two
    # vocabularies this registry merged.
    assert sum(EVENTS.values()) == 17
    assert len(EVENTS) - sum(EVENTS.values()) == 76


def test_check_span_event_contract():
    assert is_causal("send") is True
    assert is_causal("request_sent") is False  # a plain name, not causal
    with pytest.raises(UnknownEventError):
        is_causal("sennd")


def test_protocol_doc_lists_the_whole_vocabulary():
    # docs/PROTOCOL.md "Observability" carries the vocabulary as one
    # table (name | kind | emitted by | marks); it must be the registry.
    doc = (SRC.parent / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    documented: dict[str, bool] = {}
    for row in re.finditer(r"^\| (`[a-z_`/ ]+`) \| (plain|causal) \|", doc, re.MULTILINE):
        for name in re.findall(r"`([a-z_]+)`", row.group(1)):
            documented[name] = row.group(2) == "causal"
    assert documented == EVENTS
