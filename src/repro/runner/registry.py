"""The global registry of runnable experiment specs.

Experiment modules under :mod:`repro.experiments` register their spec at
import time (``SPEC = register_experiment(...)`` at module bottom), so
importing the experiments package populates the registry as a side
effect — :func:`ensure_experiments_loaded` is the one hook worker
processes and lazy callers need.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import RunnerError
from .spec import ExperimentSpec, SweepPoint, monolithic_spec


class RunnerRegistry:
    """Maps experiment ids to :class:`ExperimentSpec` objects."""

    def __init__(self) -> None:
        self._specs: dict[str, ExperimentSpec] = {}

    def register(
        self, spec: ExperimentSpec, replace: bool = False
    ) -> ExperimentSpec:
        if spec.experiment_id in self._specs and not replace:
            raise RunnerError(
                f"experiment {spec.experiment_id!r} is already registered"
            )
        self._specs[spec.experiment_id] = spec
        return spec

    def get(self, experiment_id: str) -> ExperimentSpec:
        if experiment_id not in self._specs:
            ensure_experiments_loaded()
        spec = self._specs.get(experiment_id)
        if spec is None:
            raise RunnerError(
                f"unknown experiment {experiment_id!r} "
                f"(registered: {', '.join(self.ids())})"
            )
        return spec

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._specs

    def ids(self) -> tuple[str, ...]:
        ensure_experiments_loaded()
        return tuple(sorted(self._specs))


#: The process-wide registry the executor and the CLI resolve against.
REGISTRY = RunnerRegistry()


def ensure_experiments_loaded() -> None:
    """Import the experiments package for its registration side effects."""
    import repro.experiments  # noqa: F401


def register_experiment(
    *,
    experiment_id: str,
    title: str,
    points: Callable[..., tuple[SweepPoint, ...]],
    point_fn: Callable[..., Any],
    assemble: Callable[..., Any],
    build_tables: Callable[[Any], tuple],
    worker_import: str | None = None,
) -> ExperimentSpec:
    """Build and register a swept experiment (idempotent on re-import)."""
    return REGISTRY.register(
        ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            points=points,
            point_fn=point_fn,
            assemble=assemble,
            build_tables=build_tables,
            worker_import=worker_import,
        ),
        replace=True,
    )


def register_monolithic(
    experiment_id: str,
    title: str,
    run_fn: Callable[..., Any],
    build_tables: Callable[..., tuple],
) -> ExperimentSpec:
    """Register a whole-run (single-point) experiment."""
    return REGISTRY.register(
        monolithic_spec(experiment_id, title, run_fn, build_tables),
        replace=True,
    )
