"""Every ``src/repro`` module, def and stored attribute is used by a run path.

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
``Attribute.attr``, an import alias or a word in a string constant that
is not a docstring.  A sub-package ``__init__``'s re-exports and
``__all__`` list are not uses, and dunder methods are exempt.

Its attribute rule: every attribute name a reached module stores
(``x.a = ...``, ``x.a += ...``) is read in a reached module, an example
or ``pimbench/*.py``.  A read is an ``ast.Attribute`` in load context or
a non-docstring string constant that is exactly the name, so
``getattr(obj, "a")`` counts.

Reads and uses in ``tests/`` and ``benchmarks/`` never count: state or a
def that only a test looks at is dead to every run.  Name matching
undercounts dead code: a def or attribute that shares its name with a
used one counts as used.  Both rules take an explicit ``modules`` and
``scripts`` set, so they can be checked on synthetic source trees.

Run ``python tests/test_reachability.py`` to print the unreached
modules, unused defs and write-only attributes.
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
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


@functools.cache
def _docstrings(path: Path) -> frozenset[ast.Constant]:
    """The module, class and function docstring constants of ``path``."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return frozenset(
        node.body[0].value
        for node in ast.walk(_tree(path))
        if isinstance(node, kinds)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    )


def _is_string(node: ast.AST, path: Path) -> bool:
    """A string constant of ``path`` that is not a docstring."""
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node not in _docstrings(path)
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
            elif _is_string(node, path):
                names = _WORD.findall(node.value)
            else:
                continue
            for name in names:
                found[name].append(getattr(node, "lineno", 0))
    return found


def _sources(
    modules: dict[str, Path] | None, scripts: list[Path] | None
) -> tuple[dict[str, Path], list[Path]]:
    """The checked modules and anchoring scripts; the repo's by default."""
    if modules is None:
        modules = {name: MODULES[name] for name in sorted(reached())}
    return modules, _scripts() if scripts is None else scripts


def unused_defs(
    modules: dict[str, Path] | None = None, scripts: list[Path] | None = None
) -> list[str]:
    """``module:qualname`` of every def in ``modules`` no use names."""
    modules, scripts = _sources(modules, scripts)
    uses = {path: _uses(path) for path in [*modules.values(), *scripts]}
    stray = []
    for module, path in modules.items():
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


def write_only_attributes(
    modules: dict[str, Path] | None = None, scripts: list[Path] | None = None
) -> list[str]:
    """``module:line .attr`` of every attribute store no read names."""
    modules, scripts = _sources(modules, scripts)
    reads = set()
    for path in [*modules.values(), *scripts]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif _is_string(node, path):
                reads.add(node.value)
    return [
        f"{module}:{node.lineno} .{node.attr}"
        for module, path in modules.items()
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr not in reads
    ]


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

    def test_every_stored_attribute_is_read(self):
        stray = write_only_attributes()
        assert not stray, (
            "attributes src/ stores but no reached module, example or "
            f"pimbench file reads: {stray}; delete the state or read it "
            "where a run needs it"
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


def _write(root: Path, name: str, source: str) -> Path:
    path = root / name
    path.write_text(textwrap.dedent(source))
    return path


BOX = """
    class Box:
        def __init__(self):
            self.size = 1
    """


class TestGuardRules:
    """Each rule on tiny synthetic source trees."""

    def test_write_only_self_attribute_is_flagged(self, tmp_path):
        box = _write(tmp_path, "box.py", BOX)
        assert write_only_attributes({"box": box}, []) == ["box:4 .size"]

    def test_augmented_store_without_a_load_is_flagged(self, tmp_path):
        tally = _write(
            tmp_path,
            "tally.py",
            """
            def bump(counters):
                counters.hits += 1
            """,
        )
        assert write_only_attributes({"tally": tally}, []) == [
            "tally:3 .hits"
        ]

    def test_def_named_only_in_a_docstring_is_flagged(self, tmp_path):
        mod = _write(
            tmp_path,
            "mod.py",
            '''
            """Calls ``helper`` on request."""


            def helper():
                """``helper`` names itself here too."""
                return 1
            ''',
        )
        assert unused_defs({"mod": mod}, []) == ["mod:helper"]

    def test_getattr_with_a_string_is_a_read(self, tmp_path):
        box = _write(
            tmp_path,
            "box.py",
            BOX
            + """
    def size_of(box):
        return getattr(box, "size")
    """,
        )
        assert write_only_attributes({"box": box}, []) == []

    def test_exact_name_string_is_a_read(self, tmp_path):
        source = """
            def reset(counters):
                counters.hits = 0
                return {}
            """
        named = _write(tmp_path, "named.py", source.format('("hits",)'))
        worded = _write(tmp_path, "worded.py", source.format('"hits reset"'))
        assert write_only_attributes({"named": named}, []) == []
        assert write_only_attributes({"worded": worded}, []) == [
            "worded:3 .hits"
        ]

    def test_load_in_a_script_is_a_read(self, tmp_path):
        box = _write(tmp_path, "box.py", BOX)
        bench = _write(
            tmp_path,
            "bench.py",
            """
            def report(box):
                return box.size
            """,
        )
        assert write_only_attributes({"box": box}, [bench]) == []


if __name__ == "__main__":
    for name in unreached():
        print(f"module {name}")
    for name in unused_defs():
        print(f"def    {name}")
    for name in write_only_attributes():
        print(f"attr   {name}")
