"""Every ``src/repro`` module and def is reached from a run path.

The roots are the CLI, every registered experiment, every ``repro``
entry point the ``pimbench`` benchmark imports or wraps, every
``examples/*.py`` script and every name in ``repro.__all__`` (the public
API ``tests/test_public_api.py`` pins).  The walk reads source with
:mod:`ast` only; nothing is imported.  Its module rules:

* entering a module enters its parent packages;
* a package ``__init__`` contributes only its bare ``from . import mod``
  side-effect imports (backend and experiment registrations); its name
  re-exports are not edges;
* ``from pkg import name`` is followed to the submodule that defines
  ``name``.

Its def rule: a top-level function or class, or a method, in a reached
module is used when its name appears outside its own body, in a reached
module, an example or ``pimbench/*.py``.  A use is an ``ast.Name``, an
``Attribute.attr``, an import alias or a word in a string constant.  A
sub-package ``__init__``'s re-exports and ``__all__`` list are not uses,
and dunder methods are exempt.  Name matching undercounts dead code: a
def that shares its name with a used one counts as used.

Run ``python tests/test_reachability.py`` to print the unreached modules
and defs.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PIMBENCH = REPO / "pimbench"
EXAMPLES = REPO / "examples"

_TARGET = re.compile(r"^(repro(?:\.\w+)*):(\w+)")
_WORD = re.compile(r"\w+")


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


def _public_api() -> list[str]:
    """The names in ``repro.__all__``."""
    for node in _tree(MODULES["repro"]).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _scripts() -> list[Path]:
    """The non-``src`` files that anchor the walk: pimbench and examples."""
    return sorted(PIMBENCH.glob("*.py")) + sorted(EXAMPLES.glob("*.py"))


def roots() -> set[str]:
    found = {"repro.cli", "repro.__main__", "repro.experiments"}
    found |= {_defining("repro", name) for name in _public_api()}
    for path in _scripts():
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


def _defs(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Top-level functions and classes and their methods, by qualname."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, kinds[:2])
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return found


def _is_reexport(node: ast.AST) -> bool:
    """A package ``__init__``'s name re-export or ``__all__`` list."""
    if isinstance(node, ast.ImportFrom):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _uses(path: Path) -> dict[str, list[int]]:
    """Name -> line numbers of every use in the file at ``path``."""
    tree = _tree(path)
    nodes: list[ast.AST] = [tree]
    if path.name == "__init__.py" and path.parent != SRC / "repro":
        nodes = [node for node in tree.body if not _is_reexport(node)]
    found: dict[str, list[int]] = defaultdict(list)
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name.rpartition(".")[2]]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = _WORD.findall(node.value)
            else:
                continue
            for name in names:
                found[name].append(getattr(node, "lineno", 0))
    return found


def unused_defs() -> list[str]:
    """``module:qualname`` of every def in a reached module no use names."""
    modules = sorted(reached())
    files = [MODULES[name] for name in modules] + _scripts()
    uses = {path: _uses(path) for path in files}
    stray = []
    for module in modules:
        path = MODULES[module]
        for qualname, node in _defs(_tree(path)):
            name = qualname.rpartition(".")[2]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                line not in own if other == path else True
                for other, found in uses.items()
                for line in found.get(name, ())
            ):
                stray.append(f"{module}:{qualname}")
    return stray


class TestReachability:
    def test_every_module_is_reached(self):
        stray = unreached()
        assert not stray, (
            "modules no CLI command, experiment, example, public API name "
            f"or pimbench workload reaches: {stray}; delete them or move "
            "them under tests/"
        )

    def test_every_def_is_used(self):
        stray = unused_defs()
        assert not stray, (
            "defs no reached module, example or pimbench file names outside "
            f"their own body: {stray}; delete them or move them into the "
            "tests that use them"
        )

    def test_side_effect_imports_are_edges(self):
        # The backend registrations in repro.collectives are reached
        # only through the package's bare ``from . import`` line.
        assert "repro.collectives.ndp_bridge" in _edges("repro.collectives")
        assert "repro.core.api" not in _edges("repro")

    def test_public_api_is_a_root(self):
        assert "repro.core.api" in roots()

    def test_from_import_follows_to_the_defining_module(self):
        assert _defining("repro.core", "execute_schedule") == (
            "repro.core.schedule"
        )
        assert _defining("repro.collectives", "registry") == (
            "repro.collectives.backend"
        )


if __name__ == "__main__":
    for name in unreached():
        print(f"module {name}")
    for name in unused_defs():
        print(f"def    {name}")
