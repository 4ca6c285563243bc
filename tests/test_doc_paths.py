"""Docs and CI name only files that exist, or files they say they write.

Every ``benchmarks/*.py``, ``examples/*.py`` and root-level ``*.json``
path named in the documents below must be in the tree, unless the same
document names it as an output: the value of ``--out``, ``--output``,
``--summary`` or ``--artifact``, or an entry of an upload ``path:``.
A deleted script or baseline that a README still points at fails here.

Every dotted ``repro.x.y[.Name]`` they name must import as a module, or
resolve as attributes of the longest prefix that imports: a document
citing a deleted module or class fails here too.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = (
    "README.md",
    "docs/PROTOCOL.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
)

_SCRIPT = re.compile(r"\b(?:benchmarks|examples)/[\w/]+\.py\b")
#: A bare ``name.json``: no directory part, so it means the repo root.
_ROOT_JSON = re.compile(r"(?<![\w/.-])[\w-]+\.json\b")
_OUTPUT_FLAG = re.compile(r"--(?:out|output|summary|artifact)[ =]+(\S+\.json)")
_UPLOAD_PATH = re.compile(r"^(\s*)path:\s*(.*)$")
_DOTTED = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")


def _named_outputs(text: str) -> set[str]:
    outputs = set(_OUTPUT_FLAG.findall(text))
    lines = text.splitlines()
    for i, line in enumerate(lines):
        match = _UPLOAD_PATH.match(line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value != "|":
            outputs.add(value)
            continue
        for entry in lines[i + 1:]:
            if len(entry) - len(entry.lstrip()) <= indent:
                break
            outputs.add(entry.strip())
    return outputs


def missing_paths(text: str) -> list[str]:
    outputs = _named_outputs(text)
    named = set(_SCRIPT.findall(text)) | set(_ROOT_JSON.findall(text))
    return sorted(p for p in named if p not in outputs and not (ROOT / p).is_file())


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def unresolved_names(text: str) -> list[str]:
    return sorted(name for name in set(_DOTTED.findall(text)) if not _resolves(name))


@pytest.mark.parametrize("document", DOCUMENTS)
def test_named_paths_exist_or_are_outputs(document):
    assert missing_paths((ROOT / document).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("document", DOCUMENTS)
def test_named_repro_objects_exist(document):
    assert unresolved_names((ROOT / document).read_text(encoding="utf-8")) == []


def test_the_check_sees_a_deleted_module_and_a_deleted_name():
    text = (
        "`repro.simnet.network.Network` is the fabric (`repro.simnet`), run by\n"
        "`python -m repro.cluster smoke`; `repro.simnet.transport` and\n"
        "`repro.simnet.network.Datagram` are gone, src/repro/runtime/sim.py too.\n"
    )
    assert unresolved_names(text) == ["repro.simnet.network.Datagram", "repro.simnet.transport"]


def test_the_check_sees_a_deleted_file_and_spares_an_output():
    text = (
        "Run `python benchmarks/gone_harness.py --check` against `GONE_baseline.json`;\n"
        "`python -m tool run --out fresh.json` then `tool compare fresh.json`.\n"
        "        with:\n          path: |\n            uploaded.json\n          if-no-files-found: ignore\n"
        "and later `uploaded.json` again, and /tmp/elsewhere.json, and BENCHMARK.json.\n"
    )
    assert missing_paths(text) == ["GONE_baseline.json", "benchmarks/gone_harness.py"]
