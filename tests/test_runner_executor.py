"""Parallel executor: determinism, error surfacing, clean shutdown.

Toy experiments registered here (and removed afterwards) keep these
tests independent of the real experiment sweeps: the toys are cheap,
their values encode their point params, and some of them misbehave on
purpose.  Parallel cases require the ``fork`` start method so worker
processes inherit the test-local registry entries.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.config import RunnerConfig, small_test_system
from repro.errors import PointExecutionError, RunnerError
from repro.experiments.common import ExperimentTable
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.runner import (
    REGISTRY,
    ExperimentSpec,
    SweepPoint,
    run_experiment,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel toy specs need fork-inherited registry entries",
)

N_POINTS = 6


def _square_points(machine):
    return tuple(
        SweepPoint(i, {"x": i}) for i in range(N_POINTS)
    )


def _square_points_shuffled(machine):
    order = [4, 1, 5, 0, 2, 3]
    return tuple(SweepPoint(i, {"x": i}) for i in order)


def _square_point(machine, x):
    return {"x": x, "square": x * x, "pid": os.getpid()}


def _square_assemble(machine, values):
    rows = tuple((v["x"], v["square"]) for v in values)
    return (
        ExperimentTable("Toy", "squares", ("x", "x^2"), rows),
    )


def _failing_point(machine, x):
    if x == 3:
        raise ValueError(f"point {x} exploded")
    return {"x": x, "square": x * x}


def _sleepy_point(machine, x):
    time.sleep(1.5)
    return {"x": x, "square": x * x}


def _duplicate_index_points(machine):
    return (SweepPoint(0, {"x": 0}), SweepPoint(0, {"x": 1}))


def _seeded_points(machine):
    return (
        SweepPoint(0, {"x": 0, "seed": 100}),
        SweepPoint(1, {"x": 1, "seed": 100}),
        SweepPoint(2, {"x": 2}),  # unseeded: a --seed override skips it
    )


def _seeded_point(machine, x, seed=None):
    return {"x": x, "square": seed if seed is not None else -1}


def _metric_point(machine, x):
    from repro.observability.metrics import metric_counter, metric_histogram

    metric_counter("toy.points").inc()
    metric_histogram("toy.latency_s", {"shard": str(x % 2)}).observe(
        0.001 * (x + 1)
    )
    return {"x": x, "square": x * x, "pid": os.getpid()}


def _schedcache_point(machine, x):
    from repro.collectives.patterns import Collective
    from repro.core.schedule import Shape
    from repro.schedcache import active_schedule_cache

    cache = active_schedule_cache()
    shape = Shape(banks=2, chips=2, ranks=1)
    times = cache.timing(
        Collective.ALL_REDUCE,
        shape,
        shape.num_dpus * (x + 1),
        machine.pimnet,
    )
    return {
        "x": x,
        "square": x * x,
        "total_s": sum(times.values()),
        "pid": os.getpid(),
        # The worker's cache must be its own, not the parent's COW copy.
        "cache_owned": cache.stats()["pid"] == os.getpid(),
    }


TOY_SPECS = (
    ExperimentSpec(
        "toy_squares", "toy", _square_points, _square_point, _square_assemble
    ),
    ExperimentSpec(
        "toy_shuffled",
        "toy",
        _square_points_shuffled,
        _square_point,
        _square_assemble,
    ),
    ExperimentSpec(
        "toy_failing",
        "toy",
        _square_points,
        _failing_point,
        _square_assemble,
    ),
    ExperimentSpec(
        "toy_sleepy", "toy", _square_points, _sleepy_point, _square_assemble
    ),
    ExperimentSpec(
        "toy_bad_indices",
        "toy",
        _duplicate_index_points,
        _square_point,
        _square_assemble,
    ),
    ExperimentSpec(
        "toy_seeded",
        "toy",
        _seeded_points,
        _seeded_point,
        _square_assemble,
    ),
    ExperimentSpec(
        "toy_metrics",
        "toy",
        _square_points,
        _metric_point,
        _square_assemble,
    ),
    ExperimentSpec(
        "toy_schedcache",
        "toy",
        _square_points,
        _schedcache_point,
        _square_assemble,
    ),
)


@pytest.fixture(autouse=True)
def toy_registry():
    for spec in TOY_SPECS:
        REGISTRY.register(spec, replace=True)
    try:
        yield
    finally:
        for spec in TOY_SPECS:
            REGISTRY._specs.pop(spec.experiment_id, None)


@pytest.fixture
def machine():
    return small_test_system()


def _no_cache(jobs=1, **kwargs):
    return RunnerConfig(jobs=jobs, cache_enabled=False, **kwargs)


EXPECTED_ROWS = tuple((x, x * x) for x in range(N_POINTS))


class TestDeterminism:
    def test_serial_rows_are_in_index_order(self, machine):
        run = run_experiment("toy_squares", machine, _no_cache())
        assert run.tables[0].rows == EXPECTED_ROWS
        assert run.points == N_POINTS

    @needs_fork
    def test_parallel_equals_serial(self, machine):
        serial = run_experiment("toy_squares", machine, _no_cache())
        parallel = run_experiment("toy_squares", machine, _no_cache(jobs=4))
        assert parallel.tables == serial.tables

    @needs_fork
    def test_shuffled_submission_order_is_reassembled_by_index(
        self, machine
    ):
        serial = run_experiment("toy_shuffled", machine, _no_cache())
        parallel = run_experiment("toy_shuffled", machine, _no_cache(jobs=3))
        assert serial.tables[0].rows == EXPECTED_ROWS
        assert parallel.tables == serial.tables


class TestErrorSurfacing:
    def test_serial_failure_carries_point_params(self, machine):
        with pytest.raises(PointExecutionError) as excinfo:
            run_experiment("toy_failing", machine, _no_cache())
        assert excinfo.value.experiment_id == "toy_failing"
        assert excinfo.value.params == {"x": 3}
        assert "exploded" in str(excinfo.value)

    @needs_fork
    def test_parallel_failure_carries_point_params(self, machine):
        with pytest.raises(PointExecutionError) as excinfo:
            run_experiment("toy_failing", machine, _no_cache(jobs=3))
        assert excinfo.value.experiment_id == "toy_failing"
        assert excinfo.value.params == {"x": 3}

    @needs_fork
    def test_executor_recovers_after_a_failed_run(self, machine):
        with pytest.raises(PointExecutionError):
            run_experiment("toy_failing", machine, _no_cache(jobs=3))
        run = run_experiment("toy_squares", machine, _no_cache(jobs=3))
        assert run.tables[0].rows == EXPECTED_ROWS

    @needs_fork
    def test_timeout_surfaces_with_params(self, machine):
        runner = _no_cache(jobs=2, point_timeout_s=0.25)
        start = time.perf_counter()
        with pytest.raises(PointExecutionError) as excinfo:
            run_experiment("toy_sleepy", machine, runner)
        elapsed = time.perf_counter() - start
        assert "timed out" in str(excinfo.value)
        assert excinfo.value.params == {"x": 0}
        # The run must fail promptly, not wait out every sleeping worker.
        assert elapsed < 1.4

    def test_unknown_experiment_raises_runner_error(self, machine):
        with pytest.raises(RunnerError) as excinfo:
            run_experiment("toy_nonexistent", machine, _no_cache())
        assert "unknown experiment" in str(excinfo.value)

    def test_duplicate_point_indices_rejected(self, machine):
        with pytest.raises(RunnerError) as excinfo:
            run_experiment("toy_bad_indices", machine, _no_cache())
        assert "permutation" in str(excinfo.value)


class TestCachingThroughExecutor:
    def test_cold_then_warm_counts(self, machine, tmp_path):
        runner = RunnerConfig(cache_dir=str(tmp_path / "cache"))
        cold = run_experiment("toy_squares", machine, runner)
        assert (cold.cache_hits, cold.cache_misses) == (0, N_POINTS)
        warm = run_experiment("toy_squares", machine, runner)
        assert (warm.cache_hits, warm.cache_misses) == (N_POINTS, 0)
        assert warm.tables == cold.tables

    @needs_fork
    def test_parallel_cold_run_seeds_the_cache_for_serial_warm(
        self, machine, tmp_path
    ):
        parallel = RunnerConfig(jobs=3, cache_dir=str(tmp_path / "cache"))
        serial = RunnerConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
        cold = run_experiment("toy_squares", machine, parallel)
        warm = run_experiment("toy_squares", machine, serial)
        assert warm.cache_hits == N_POINTS
        assert warm.tables == cold.tables

    def test_metrics_counters_are_recorded(self, machine, tmp_path):
        registry = MetricsRegistry()
        runner = RunnerConfig(cache_dir=str(tmp_path / "cache"))
        with use_metrics(registry):
            run_experiment("toy_squares", machine, runner)
            run_experiment("toy_squares", machine, runner)
        snapshot = registry.snapshot()
        assert snapshot["runner.cache.misses"]["value"] == N_POINTS
        assert snapshot["runner.cache.stores"]["value"] == N_POINTS
        assert snapshot["runner.cache.hits"]["value"] == N_POINTS
        assert snapshot["runner.experiments"]["value"] == 2
        assert snapshot["runner.points"]["value"] == 2 * N_POINTS


class TestSeedOverride:
    """Satellite of ``repro.faults``: a global --seed flows into every
    seeded sweep point and is recorded in the run."""

    def test_no_seed_keeps_registered_defaults(self, machine):
        run = run_experiment("toy_seeded", machine, _no_cache())
        assert run.seed is None
        assert run.tables[0].rows == ((0, 100), (1, 100), (2, -1))

    def test_seed_overrides_only_seeded_points(self, machine):
        run = run_experiment("toy_seeded", machine, _no_cache(), seed=7)
        assert run.seed == 7
        assert run.tables[0].rows == ((0, 7), (1, 7), (2, -1))

    def test_negative_seed_rejected(self, machine):
        with pytest.raises(RunnerError, match="seed"):
            run_experiment("toy_seeded", machine, _no_cache(), seed=-1)

    def test_seed_participates_in_the_cache_key(self, machine, tmp_path):
        runner = RunnerConfig(cache_dir=str(tmp_path / "cache"))
        first = run_experiment("toy_seeded", machine, runner, seed=7)
        other_seed = run_experiment("toy_seeded", machine, runner, seed=8)
        assert other_seed.cache_hits == 1  # only the unseeded point
        assert other_seed.tables != first.tables
        warm = run_experiment("toy_seeded", machine, runner, seed=7)
        assert warm.cache_hits == 3
        assert warm.tables == first.tables

    def test_experiments_without_seeded_points_unaffected(self, machine):
        plain = run_experiment("toy_squares", machine, _no_cache())
        seeded = run_experiment("toy_squares", machine, _no_cache(), seed=5)
        assert seeded.tables == plain.tables
        assert seeded.seed == 5


class TestWorkerMetricsMerge:
    """Metrics observed inside fork-pool workers fold back to the parent."""

    @needs_fork
    def test_jobs4_sweep_lands_in_the_parent_snapshot(self, machine):
        registry = MetricsRegistry()
        with use_metrics(registry):
            run = run_experiment("toy_metrics", machine, _no_cache(jobs=4))
        assert run.points == N_POINTS
        snapshot = registry.snapshot()
        assert snapshot["toy.points"]["value"] == N_POINTS
        # Labeled histogram children survive the process boundary with
        # their observations intact.
        even = snapshot["toy.latency_s{shard=0}"]
        odd = snapshot["toy.latency_s{shard=1}"]
        assert even["count"] + odd["count"] == N_POINTS
        assert even["max"] == pytest.approx(0.005)
        assert odd["max"] == pytest.approx(0.006)

    @needs_fork
    def test_parallel_merge_matches_serial_recording(self, machine):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        with use_metrics(serial):
            run_experiment("toy_metrics", machine, _no_cache(jobs=1))
        with use_metrics(parallel):
            run_experiment("toy_metrics", machine, _no_cache(jobs=4))
        assert parallel.snapshot() == serial.snapshot()

    @needs_fork
    def test_cache_stores_unwrapped_values(self, machine, tmp_path):
        runner = RunnerConfig(jobs=4, cache_dir=str(tmp_path / "cache"))
        with use_metrics(MetricsRegistry()):
            cold = run_experiment("toy_metrics", machine, runner)
        # A metrics-off serial warm run must read plain point values,
        # not (value, registry) tuples.
        warm = run_experiment(
            "toy_metrics",
            machine,
            RunnerConfig(cache_dir=str(tmp_path / "cache")),
        )
        assert warm.cache_hits == N_POINTS
        assert warm.tables == cold.tables

    @needs_fork
    def test_no_registry_means_no_wrapping_overhead(self, machine):
        run = run_experiment("toy_metrics", machine, _no_cache(jobs=4))
        assert run.tables[0].rows == EXPECTED_ROWS


class TestWorkerScheduleCache:
    """The schedule-compilation cache stays safe under the fork pool:
    each worker resets its inherited copy, and worker hit/miss counters
    reach the parent through the metrics merge (not the parent's own
    cache instance, which must stay untouched)."""

    def _run_parallel(self, machine, registry=None):
        from repro.schedcache import ScheduleCache, use_schedule_cache

        with use_schedule_cache(ScheduleCache()) as parent_cache:
            if registry is not None:
                with use_metrics(registry):
                    run = run_experiment(
                        "toy_schedcache", machine, _no_cache(jobs=3)
                    )
            else:
                run = run_experiment(
                    "toy_schedcache", machine, _no_cache(jobs=3)
                )
        return run, parent_cache

    @needs_fork
    def test_workers_own_their_caches(self, machine):
        run, _ = self._run_parallel(machine)
        assert run.points == N_POINTS
        # _square_assemble only keeps (x, square); re-run serially to
        # inspect the point values directly.
        from repro.runner.executor import _execute_point

        value = _execute_point("toy_schedcache", machine, {"x": 0})
        assert value["cache_owned"]

    @needs_fork
    def test_worker_counters_merge_into_parent_metrics(self, machine):
        registry = MetricsRegistry()
        run, parent_cache = self._run_parallel(machine, registry)
        assert run.points == N_POINTS
        snapshot = registry.snapshot()
        # Every point either compiled the structure's profile (first
        # touch in its worker) or replayed it; nothing is lost.
        compiled = snapshot["schedcache.profile.misses"]["value"]
        replayed = snapshot.get(
            "schedcache.timing.replays", {"value": 0}
        )["value"]
        assert compiled >= 1
        assert compiled + replayed == N_POINTS

    @needs_fork
    def test_parent_cache_instance_stays_untouched(self, machine):
        run, parent_cache = self._run_parallel(machine, MetricsRegistry())
        assert run.points == N_POINTS
        stats = parent_cache.stats()
        assert stats["schedules"] == 0 and stats["profiles"] == 0
        assert all(v == 0 for v in stats["counters"].values())

    def test_serial_run_uses_the_parent_cache(self, machine):
        from repro.schedcache import ScheduleCache, use_schedule_cache

        with use_schedule_cache(ScheduleCache()) as cache:
            run = run_experiment("toy_schedcache", machine, _no_cache())
        assert run.points == N_POINTS
        counters = cache.counters
        assert counters.profile_misses == 1
        assert counters.timing_replays == N_POINTS - 1
