"""Helpers shared by ``run.py``, ``worker.py`` and ``compare.py``.

``BENCHMARK.json`` at the repository root is the single source of the
workload names and of every metric's name, unit, direction and bound;
the modules here read it rather than repeating it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/pimbench``.
ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: The seed whose outputs are pinned by the committed goldens and by
#: ``expected_digests.json``; every other seed is a held-out seed.
DEFAULT_SEED = 0


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text())


def metric_table(spec: dict, kind: str) -> dict[str, dict]:
    """name -> metric entry for ``kind`` (``end_to_end`` or ``per_layer``)."""
    return {entry["name"]: entry for entry in spec[kind]}


def nearest_rank(values: list[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
