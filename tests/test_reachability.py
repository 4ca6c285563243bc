"""Every module under ``src/repro`` is used by something that runs.

A module is *reachable* if a chain of ``import`` statements leads to it
from a benchmark (``benchmarks/**/*.py``) or from a ``python -m
repro.…`` entry point that ``.github/workflows/ci.yml`` runs.  Two rules
keep the walk honest about what "uses" means:

* ``from package import name`` reaches the submodule that *defines*
  ``name`` (followed through the package's ``__init__`` re-export), not
  everything that ``__init__`` happens to import;
* importing ``package.module`` executes ``package/__init__.py``, but
  that implicit execution reaches nothing.

So a module that only a package ``__init__`` re-exports -- the shape
dead periphery takes in this repo -- is unreachable, and fails here
unless it is on :data:`ALLOWED` with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``python -m`` entry points ci.yml runs.
ENTRY_POINTS = (
    "repro.experiments.__main__",
    "repro.experiments.runtime_compare",
    "repro.cluster.__main__",
    "repro.cluster.worker",
)

#: Unreached on purpose, each with why it stays.
ALLOWED = {
    "repro.security.credentials": "paper section 2.4; driven by examples/secure_discovery.py",
    "repro.topology.churn": "the soak and integration tests' fault driver",
}


def _path_of(module: str) -> Path | None:
    """The file behind a dotted ``repro`` name (a package's ``__init__``)."""
    base = SRC.joinpath(*module.split("."))
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def _is_package(module: str) -> bool:
    return SRC.joinpath(*module.split("."), "__init__.py").is_file()


def _imports(path: Path, module: str | None) -> list[tuple[str, str | None]]:
    """``(module, name or None)`` for every import statement in ``path``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                if module is None:
                    continue  # a benchmark's sibling: every benchmark is a root
                package = module if path.name == "__init__.py" else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                source = f"{package}.{source}" if source else package
            found.extend((source, alias.name) for alias in node.names)
    return [(m, n) for m, n in found if m == "repro" or m.startswith("repro.")]


def _definers(package: str, name: str) -> list[str]:
    """The modules a package ``__init__`` takes ``name`` from."""
    init = _path_of(package)
    assert init is not None
    return [m for m, n in _imports(init, package) if n == name]


def _reached() -> set[str]:
    reached: set[str] = set()
    frontier: list[tuple[str, str | None]] = []
    for bench in sorted((ROOT / "benchmarks").rglob("*.py")):
        frontier.extend(_imports(bench, None))
    frontier.extend((entry, None) for entry in ENTRY_POINTS)
    while frontier:
        module, name = frontier.pop()
        if name is not None and _path_of(f"{module}.{name}") is not None:
            module, name = f"{module}.{name}", None  # ``from package import submodule``
        if name is not None and _is_package(module):
            frontier.extend((definer, name) for definer in _definers(module, name))
            continue
        if module in reached or _path_of(module) is None or _is_package(module):
            continue
        reached.add(module)
        frontier.extend(_imports(_path_of(module), module))
    return reached


def _all_modules() -> set[str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_module_is_reachable_or_excused():
    unreachable = _all_modules() - _reached() - set(ALLOWED)
    assert not unreachable, (
        "modules no benchmark or CI entry point imports (delete them, or add them "
        f"to ALLOWED with a reason): {sorted(unreachable)}"
    )


def test_allowlist_carries_no_stale_entries():
    assert set(ALLOWED) <= _all_modules()
    assert not set(ALLOWED) & _reached()
