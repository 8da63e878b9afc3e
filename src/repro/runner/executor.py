"""Serial/parallel execution of registered experiments, with caching.

The executor resolves an experiment's sweep points, satisfies what it
can from the content-addressed cache, computes the rest — serially, or
fanned out over a ``ProcessPoolExecutor`` when ``RunnerConfig.jobs > 1``
— and reassembles the values *by point index*, so the resulting tables
and the typed result they render are bit-identical regardless of jobs
count, submission order, or cache state.

A failing or timed-out point surfaces as :class:`PointExecutionError`
carrying the point's params; the pool is cancelled and shut down before
the error propagates.
"""

from __future__ import annotations

import importlib
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..config.runner import RunnerConfig
from ..errors import PointExecutionError, RunnerError
from ..observability.metrics import (
    MetricsRegistry,
    active_metrics,
    metric_counter,
    metrics_active,
    use_metrics,
)
from .cache import ResultCache, cache_key, key_prefix
from .registry import REGISTRY
from .spec import ExperimentSpec, SweepPoint, format_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..config.presets import MachineConfig
    from ..experiments.common import ExperimentTable

#: Sentinel distinguishing "not computed yet" from a cached ``None``.
_UNSET = object()


@dataclass(frozen=True)
class ExperimentRun:
    """One executed experiment: its result, and how it was obtained.

    ``result`` is what the spec's ``assemble`` returned and ``tables``
    is ``spec.build_tables(result)``.  ``seed`` records the global seed
    override the run was executed under (``repro run --seed``); ``None``
    means every seeded point used its registered default.
    """

    experiment_id: str
    result: Any
    tables: tuple["ExperimentTable", ...]
    points: int
    cache_hits: int
    cache_misses: int
    seed: int | None = None

    def format(self) -> str:
        return format_tables(self.tables)


def run_experiment(
    experiment_id: str,
    machine: "MachineConfig | None" = None,
    runner: RunnerConfig | None = None,
    seed: int | None = None,
) -> ExperimentRun:
    """Execute one registered experiment under ``runner``'s policy.

    ``seed`` overrides the ``"seed"`` param of every sweep point that
    has one (experiments without a seeded point are unaffected).  The
    override flows through ``point.params`` into the cache key, so runs
    at different seeds never collide in the cache.
    """
    runner = runner or RunnerConfig()
    spec = REGISTRY.get(experiment_id)
    if machine is None:
        machine = _default_machine()
    points = _checked_points(spec, machine)
    if seed is not None:
        if seed < 0:
            raise RunnerError(f"seed must be >= 0, got {seed}")
        points = tuple(
            SweepPoint(p.index, {**p.params, "seed": seed})
            if "seed" in p.params
            else p
            for p in points
        )
    values: list[Any] = [_UNSET] * len(points)

    cache = ResultCache(runner.cache_dir) if runner.cache_enabled else None
    prefix = key_prefix(experiment_id, machine) if cache is not None else None
    pending: list[tuple[SweepPoint, str | None]] = []
    hits = 0
    for point in points:
        key = None
        if cache is not None:
            key = cache_key(prefix, point.params)
            hit, value = cache.get(experiment_id, key)
            if hit:
                values[point.index] = value
                hits += 1
                continue
        pending.append((point, key))

    if pending:
        todo = [point for point, _ in pending]
        if runner.jobs > 1 and len(todo) > 1:
            computed = _run_parallel(spec, machine, todo, runner)
        else:
            computed = [
                _run_serial_point(spec, machine, point, runner)
                for point in todo
            ]
        for (point, key), value in zip(pending, computed):
            values[point.index] = value
            if cache is not None:
                cache.put(experiment_id, key, value, params=point.params)

    result = spec.assemble(machine, tuple(values))
    metric_counter("runner.experiments").inc()
    metric_counter("runner.points").inc(len(points))
    return ExperimentRun(
        experiment_id=experiment_id,
        result=result,
        tables=tuple(spec.build_tables(result)),
        points=len(points),
        cache_hits=hits,
        cache_misses=len(pending),
        seed=seed,
    )


# --------------------------------------------------------------------------
# Internals.
# --------------------------------------------------------------------------


def _default_machine() -> "MachineConfig":
    from ..experiments.common import default_machine

    return default_machine()


def _checked_points(
    spec: ExperimentSpec, machine: "MachineConfig"
) -> tuple[SweepPoint, ...]:
    points = tuple(spec.points(machine))
    if sorted(point.index for point in points) != list(range(len(points))):
        raise RunnerError(
            f"{spec.experiment_id}: sweep point indices must be a "
            f"permutation of 0..{len(points) - 1}"
        )
    return points


def _execute_point(
    experiment_id: str,
    machine: "MachineConfig",
    params: dict[str, Any],
    worker_import: str | None = None,
    collect_metrics: bool = False,
) -> Any:
    """Worker-side entry: resolve the spec in this process and run it.

    With ``collect_metrics`` the point runs under a fresh registry and
    returns ``(value, registry.to_dict())`` so the parent can fold the
    worker's counters/histograms into its own registry — without it,
    metrics recorded in a forked worker would mutate the worker's copy
    of the global registry and silently vanish with the process.
    """
    # Fork-pool workers inherit the parent's schedule-compilation cache
    # (contents *and* counters) by copy-on-write; empty it on first
    # touch so each worker's stats describe only its own work.  The
    # worker's hit/miss counters still reach the parent: they are
    # mirrored into ``schedcache.*`` metrics, which the registry merge
    # below ships back.
    from ..schedcache import reset_worker_cache

    reset_worker_cache()
    if worker_import:
        importlib.import_module(worker_import)
    spec = REGISTRY.get(experiment_id)
    if not collect_metrics:
        return spec.point_fn(machine, **params)
    registry = MetricsRegistry()
    with use_metrics(registry):
        value = spec.point_fn(machine, **params)
    return value, registry.to_dict()


def _run_serial_point(
    spec: ExperimentSpec,
    machine: "MachineConfig",
    point: SweepPoint,
    runner: RunnerConfig,
) -> Any:
    try:
        return spec.point_fn(machine, **point.params)
    except Exception as exc:
        raise _point_error(spec, point, f"failed: {exc}") from exc


def _point_error(
    spec: ExperimentSpec, point: SweepPoint, reason: str
) -> PointExecutionError:
    return PointExecutionError(
        f"experiment {spec.experiment_id!r} point {point.params!r} {reason}",
        experiment_id=spec.experiment_id,
        params=point.params,
    )


def _mp_context():
    """Prefer ``fork``: workers inherit the registry (and imports) as-is."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _run_parallel(
    spec: ExperimentSpec,
    machine: "MachineConfig",
    points: list[SweepPoint],
    runner: RunnerConfig,
) -> list[Any]:
    pool = ProcessPoolExecutor(
        max_workers=min(runner.jobs, len(points)),
        mp_context=_mp_context(),
    )
    # Fork-pool workers mutate their own copy of the active registry, so
    # anything observed inside a point would vanish with the worker.
    # When the parent has metrics on, each worker instead records into a
    # fresh registry and ships it back alongside the value.
    collect_metrics = metrics_active()
    futures: list[Future] = []
    try:
        for point in points:
            futures.append(
                pool.submit(
                    _execute_point,
                    spec.experiment_id,
                    machine,
                    point.params,
                    spec.worker_import,
                    collect_metrics,
                )
            )
        values: list[Any] = []
        for point, future in zip(points, futures):
            try:
                result = future.result(timeout=runner.point_timeout_s)
                if collect_metrics:
                    value, worker_metrics = result
                    active_metrics().merge(worker_metrics)
                    values.append(value)
                else:
                    values.append(result)
            except FutureTimeoutError as exc:
                raise _point_error(
                    spec,
                    point,
                    f"timed out after {runner.point_timeout_s}s",
                ) from exc
            except PointExecutionError:
                raise
            except Exception as exc:
                raise _point_error(spec, point, f"failed: {exc}") from exc
    except BaseException:
        # Surface the first (in submission order) observed failure with
        # a clean pool: cancel what has not started, do not block on
        # what has.
        for future in futures:
            future.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return values
