"""Table V: collective primitives and their PIMnet implementations."""

from __future__ import annotations

from ..collectives.patterns import Collective
from ..core.collectives import PIMNET_ALGORITHMS, algorithm_chain
from ..runner.registry import register_monolithic
from .common import ExperimentTable


def run() -> dict[Collective, str]:
    return {
        pattern: algorithm_chain(pattern) for pattern in PIMNET_ALGORITHMS
    }


def build_tables(result: dict[Collective, str]) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (pattern.value, chain) for pattern, chain in result.items()
    )
    return (
        ExperimentTable(
            "Table V",
            "Collective primitives on PIMnet",
            ("pattern", "tier algorithm chain"),
            rows,
        ),
    )


SPEC = register_monolithic(
    "table05",
    "Table V: collective primitives on PIMnet",
    lambda machine: run(),
    build_tables,
)
