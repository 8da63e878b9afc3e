"""Every ``src/repro`` module is reached from a run path, or allow-listed.

The roots are the CLI, every registered experiment, and every ``repro``
entry point the ``pimbench`` benchmark imports or wraps.  The walk reads
source with :mod:`ast` only; nothing is imported.  Its rules:

* entering a module enters its parent packages;
* a package ``__init__`` contributes only its bare ``from . import mod``
  side-effect imports (backend and experiment registrations); its name
  re-exports are not edges;
* ``from pkg import name`` is followed to the submodule that defines
  ``name``.

Run ``python tests/test_reachability.py`` to print the unreached modules.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PIMBENCH = REPO / "pimbench"

#: Modules no run path reaches that stay on purpose, with the reason.
ALLOWED = {
    "repro.core.api": "the paper's user-facing pimnet_* API, "
    "reached through repro.__init__",
    "repro.dpu.isa": "ComputeModel oracle: the ISA the interpreter runs",
    "repro.dpu.interpreter": "ComputeModel oracle in test_dpu_compute.py",
    "repro.dpu.kernels": "ComputeModel oracle fixtures in test_dpu_compute.py",
    "repro.analysis.energy": "backs the energy extension result quoted "
    "in EXPERIMENTS.md",
}

_TARGET = re.compile(r"^(repro(?:\.\w+)*):(\w+)")


def _module_paths() -> dict[str, Path]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _module_paths()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _source(node: ast.ImportFrom, importer: str) -> str:
    """The absolute module a ``from ... import`` in ``importer`` names."""
    if node.level == 0:
        return node.module or ""
    base = importer.split(".")
    if not _is_package(importer):
        base = base[:-1]
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _defining(module: str, attr: str) -> str:
    """The module that defines ``attr`` as imported from ``module``."""
    if f"{module}.{attr}" in MODULES:
        return f"{module}.{attr}"
    if module not in MODULES or not _is_package(module):
        return module
    for node in _tree(MODULES[module]).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) == attr:
                return _defining(_source(node, module), alias.name)
    return module


def _imports(tree: ast.Module, importer: str | None) -> set[str]:
    """Every ``repro`` module an import anywhere in ``tree`` reaches."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, importer) if node.level else node.module
            out.add(source)
            out.update(_defining(source, alias.name) for alias in node.names)
    return {name for name in out if name in MODULES}


def _edges(name: str) -> set[str]:
    tree = _tree(MODULES[name])
    if not _is_package(name):
        return _imports(tree, name)
    return {
        f"{name}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module is None
        for alias in node.names
    }


def roots() -> set[str]:
    found = {"repro.cli", "repro.__main__", "repro.experiments"}
    for path in sorted(PIMBENCH.glob("*.py")):
        found |= _imports(_tree(path), None)
    for node in ast.walk(_tree(PIMBENCH / "layers.py")):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _TARGET.match(node.value)
            if match:
                found.add(_defining(match.group(1), match.group(2)))
    return found & set(MODULES)


def reached() -> set[str]:
    seen: set[str] = set()
    stack = list(roots())
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            stack.append(parent)
        stack.extend(_edges(name) - seen)
    return seen


def unreached() -> list[str]:
    return sorted(set(MODULES) - reached())


class TestReachability:
    def test_every_module_is_reached_or_allowed(self):
        stray = [name for name in unreached() if name not in ALLOWED]
        assert not stray, (
            "modules no CLI command, experiment or pimbench workload "
            f"reaches: {stray}; delete them or allow-list them with a reason"
        )

    def test_allow_list_is_current(self):
        missing = sorted(set(ALLOWED) - set(MODULES))
        assert not missing, f"allow-listed modules that no longer exist: {missing}"
        now_reached = sorted(set(ALLOWED) & reached())
        assert not now_reached, (
            f"allow-listed modules a run path now reaches: {now_reached}"
        )

    def test_side_effect_imports_are_edges(self):
        # The backend registrations in repro.collectives are reached
        # only through the package's bare ``from . import`` line.
        assert "repro.collectives.ndp_bridge" in _edges("repro.collectives")
        assert "repro.core.api" not in _edges("repro")

    def test_from_import_follows_to_the_defining_module(self):
        assert _defining("repro.core", "execute_schedule") == (
            "repro.core.schedule"
        )
        assert _defining("repro.collectives", "registry") == (
            "repro.collectives.backend"
        )


if __name__ == "__main__":
    for name in unreached():
        print(f"{name:28s} {ALLOWED.get(name, 'UNREACHED')}")
