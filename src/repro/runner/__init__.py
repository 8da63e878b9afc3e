"""Parallel experiment runner with content-addressed result caching.

Three pieces:

* :mod:`repro.runner.registry` — every figure/table driver registers an
  :class:`ExperimentSpec` describing its sweep as independent points
  (pure functions of a :class:`MachineConfig` plus JSON-able params);
* :mod:`repro.runner.executor` — runs the points serially or over a
  ``ProcessPoolExecutor`` (``RunnerConfig.jobs``), with per-point
  timeouts and deterministic index-ordered reassembly into the
  experiment's typed result and its :class:`ExperimentTable` tuple;
* :mod:`repro.runner.cache` — persists point results as JSON under
  ``.repro-cache/``, keyed on a stable hash of (experiment id,
  canonical machine config, params, code fingerprint).

Typical use::

    from repro.config.runner import RunnerConfig
    from repro.runner import run_experiment

    run = run_experiment("fig12", runner=RunnerConfig(jobs=4))
    print(run.format())

See ``docs/RUNNER.md`` for the design and the golden-test workflow.
"""

from ..config.runner import RunnerConfig
from .cache import (
    CACHE_VERSION,
    CacheCounters,
    DEFAULT_CACHE_DIR,
    ResultCache,
    cache_key,
    code_fingerprint,
    key_prefix,
)
from .canonical import canonical_json, canonicalize
from .executor import ExperimentRun, run_experiment
from .registry import (
    REGISTRY,
    RunnerRegistry,
    ensure_experiments_loaded,
    register_experiment,
    register_monolithic,
)
from .spec import (
    ExperimentSpec,
    SweepPoint,
    format_tables,
    monolithic_spec,
    table_from_jsonable,
    table_to_jsonable,
    tables_from_jsonable,
    tables_to_jsonable,
)

__all__ = [
    "CACHE_VERSION",
    "CacheCounters",
    "DEFAULT_CACHE_DIR",
    "ExperimentRun",
    "ExperimentSpec",
    "REGISTRY",
    "ResultCache",
    "RunnerConfig",
    "RunnerRegistry",
    "SweepPoint",
    "cache_key",
    "canonical_json",
    "canonicalize",
    "code_fingerprint",
    "ensure_experiments_loaded",
    "format_tables",
    "key_prefix",
    "monolithic_spec",
    "register_experiment",
    "register_monolithic",
    "run_experiment",
    "table_from_jsonable",
    "table_to_jsonable",
    "tables_from_jsonable",
    "tables_to_jsonable",
]
