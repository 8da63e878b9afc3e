"""Shared fixtures for the PIMnet reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    MachineConfig,
    PimSystemConfig,
    RunnerConfig,
    pimnet_sim_system,
    small_test_system,
)
from repro.runner import run_experiment


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current model output "
        "instead of asserting against it",
    )


@pytest.fixture
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture
def machine() -> MachineConfig:
    """The paper's simulated 256-DPU single-channel system (Table VI)."""
    return pimnet_sim_system()


@pytest.fixture
def tiny_machine() -> MachineConfig:
    """An 8-DPU (2x2x2) machine for fast functional tests."""
    return small_test_system()


@pytest.fixture
def medium_machine() -> MachineConfig:
    """A 4x2x2 (16-DPU) machine: big enough for asymmetric shapes."""
    from dataclasses import replace

    return replace(
        small_test_system(),
        system=PimSystemConfig(
            banks_per_chip=4, chips_per_rank=2, ranks_per_channel=2
        ),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_buffers(
    num_dpus: int,
    num_elements: int,
    rng: np.random.Generator,
    dtype=np.int64,
    low: int = 0,
    high: int = 1000,
) -> list[np.ndarray]:
    """Random per-DPU buffers for collective tests."""
    return [
        rng.integers(low, high, num_elements).astype(dtype)
        for _ in range(num_dpus)
    ]


def experiment_result(
    experiment_id: str,
    machine: MachineConfig | None = None,
    seed: int | None = None,
):
    """An experiment's typed result, run through its registered spec
    exactly as ``repro run`` does, with the result cache off."""
    return run_experiment(
        experiment_id,
        machine=machine,
        runner=RunnerConfig(cache_enabled=False),
        seed=seed,
    ).result


def total_dpus(system: PimSystemConfig) -> int:
    """DPUs across every channel of ``system``."""
    return system.banks_per_channel * system.num_channels
