"""Golden-value regression suite for every registered experiment.

Each experiment's tables (the exact JSON the runner caches and the exact
text the CLI prints) are pinned as fixtures under ``tests/goldens/``.
Three execution paths must reproduce them byte-for-byte:

* a serial run (``jobs=1``, cache off),
* a parallel run (``jobs=2``, cache off), and
* a warm-cache run (every point served from disk).

The tables round their numbers, so the same three paths must also agree
on each experiment's full-precision result.

To regenerate the fixtures after an intentional model change::

    PYTHONPATH=src python -m pytest tests/test_golden_experiments.py \
        --update-goldens -q

then inspect the diff of ``tests/goldens/`` like any other code change.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import repro.experiments
from repro.config import RunnerConfig, pimnet_sim_system
from repro.runner import REGISTRY, run_experiment, tables_to_jsonable

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Experiments whose cycle-level simulations dominate suite runtime.
SLOW_IDS = {"fig13", "noc_load_latency"}

ALL_IDS = REGISTRY.ids()

PARAMS = [
    pytest.param(
        experiment_id,
        marks=[pytest.mark.slow] if experiment_id in SLOW_IDS else [],
    )
    for experiment_id in ALL_IDS
]


@pytest.fixture(scope="module")
def golden_machine():
    return pimnet_sim_system()


def _golden_path(experiment_id: str) -> Path:
    return GOLDEN_DIR / f"{experiment_id}.json"


def _snapshot(run) -> dict:
    return {
        "experiment": run.experiment_id,
        "tables": tables_to_jsonable(run.tables),
        "formatted": run.format(),
    }


def _load_golden(experiment_id: str) -> dict:
    path = _golden_path(experiment_id)
    if not path.is_file():
        pytest.fail(
            f"missing golden fixture {path}; generate it with "
            "--update-goldens"
        )
    return json.loads(path.read_text())


def _assert_matches_golden(run, experiment_id: str) -> None:
    golden = _load_golden(experiment_id)
    snapshot = _snapshot(run)
    assert snapshot["formatted"] == golden["formatted"]
    assert snapshot["tables"] == golden["tables"]


@pytest.mark.parametrize("experiment_id", PARAMS)
def test_serial_run_matches_golden(
    experiment_id, golden_machine, update_goldens
):
    run = run_experiment(
        experiment_id,
        machine=golden_machine,
        runner=RunnerConfig(jobs=1, cache_enabled=False),
    )
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        _golden_path(experiment_id).write_text(
            json.dumps(_snapshot(run), indent=1) + "\n"
        )
        return
    _assert_matches_golden(run, experiment_id)


@pytest.mark.parametrize("experiment_id", PARAMS)
def test_parallel_run_matches_golden(
    experiment_id, golden_machine, update_goldens
):
    if update_goldens:
        pytest.skip("fixture regeneration uses the serial path only")
    run = run_experiment(
        experiment_id,
        machine=golden_machine,
        runner=RunnerConfig(jobs=2, cache_enabled=False),
    )
    _assert_matches_golden(run, experiment_id)


@pytest.mark.parametrize("experiment_id", PARAMS)
def test_warm_cache_run_matches_golden(
    experiment_id, golden_machine, update_goldens, tmp_path
):
    if update_goldens:
        pytest.skip("fixture regeneration uses the serial path only")
    runner = RunnerConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
    cold = run_experiment(experiment_id, golden_machine, runner)
    assert cold.cache_hits == 0 and cold.cache_misses == cold.points
    warm = run_experiment(experiment_id, golden_machine, runner)
    assert warm.cache_hits == warm.points and warm.cache_misses == 0
    _assert_matches_golden(cold, experiment_id)
    _assert_matches_golden(warm, experiment_id)


@pytest.mark.parametrize("experiment_id", PARAMS)
def test_schedule_cache_cold_and_warm_match_golden(
    experiment_id, golden_machine, update_goldens
):
    """A warm schedule-compilation cache must be invisible in the output:
    the second run replays cached schedules/profiles, byte-identical."""
    if update_goldens:
        pytest.skip("fixture regeneration uses the serial path only")
    from repro.schedcache import ScheduleCache, use_schedule_cache

    runner = RunnerConfig(jobs=1, cache_enabled=False)
    with use_schedule_cache(ScheduleCache()) as cache:
        cold = run_experiment(experiment_id, golden_machine, runner)
        cold_compiles = cache.counters.schedule_misses
        warm = run_experiment(experiment_id, golden_machine, runner)
        assert cache.counters.schedule_misses == cold_compiles
    _assert_matches_golden(cold, experiment_id)
    _assert_matches_golden(warm, experiment_id)


@pytest.mark.parametrize("experiment_id", PARAMS)
def test_result_is_identical_across_execution_paths(
    experiment_id, golden_machine, update_goldens, tmp_path
):
    if update_goldens:
        pytest.skip("fixture regeneration uses the serial path only")
    cache_dir = str(tmp_path / "cache")

    def result(**runner):
        return run_experiment(
            experiment_id, golden_machine, RunnerConfig(**runner)
        ).result

    serial = result(jobs=1, cache_enabled=False)
    assert result(jobs=2, cache_dir=cache_dir) == serial
    assert result(jobs=1, cache_dir=cache_dir) == serial  # warm


def test_registry_covers_every_experiment_module():
    """Every driver module registers a spec, so ``repro run`` sees it."""
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name == "common":
            continue
        module = importlib.import_module(f"repro.experiments.{info.name}")
        spec = getattr(module, "SPEC", None)
        assert spec is not None, f"{info.name} registers no SPEC"
        assert spec.experiment_id in ALL_IDS, info.name
        assert REGISTRY.get(spec.experiment_id) is spec, info.name


def test_every_experiment_has_a_golden_fixture():
    missing = [
        experiment_id
        for experiment_id in ALL_IDS
        if not _golden_path(experiment_id).is_file()
    ]
    assert not missing, f"run --update-goldens to create: {missing}"


def test_no_stale_golden_fixtures():
    stale = [
        path.name
        for path in sorted(GOLDEN_DIR.glob("*.json"))
        if path.stem not in set(ALL_IDS)
    ]
    assert not stale, f"goldens without a registered experiment: {stale}"
