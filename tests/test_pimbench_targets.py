"""Every entry point the benchmark's tracer wraps still resolves.

``pimbench/layers.py`` names the functions it wraps by path
(``TARGETS``) and wraps them only while a traced run lasts.  A renamed
or moved entry point, or one wrapped in a decorator such as
``functools.lru_cache`` (not a plain function, so the tracer cannot
find it), would otherwise fail only in the benchmark's own suite.  This
loads ``layers.py`` without installing anything and resolves each path
through its own ``bindings``.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

PIMBENCH = Path(__file__).resolve().parents[1] / "pimbench"


def load_layers():
    """Import ``pimbench/layers.py`` (it imports its sibling ``common``)."""
    sys.path.insert(0, str(PIMBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "pimbench_layers", PIMBENCH / "layers.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PIMBENCH))
    return module


def test_every_target_resolves_to_plain_functions():
    layers = load_layers()
    assert layers.TARGETS
    for target in layers.TARGETS:
        found = layers.bindings(target.path)
        assert found, target.path
        for owner, attr, original in found:
            assert inspect.isfunction(original), (target.path, owner, attr)
