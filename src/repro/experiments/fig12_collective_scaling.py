"""Fig 12: collective scalability of all five implementations.

Weak scaling 8-256 DPUs with 32 KB per-DPU messages; each point is the
*speedup over the baseline at the same DPU count* (the paper's
normalization).  NDPBridge appears only in the All-to-All panel (no
AllReduce support).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import (
    ExperimentTable,
    SCALING_DPU_COUNTS,
    scaled_machine,
)

PANEL_PATTERNS = (Collective.ALL_REDUCE, Collective.ALL_TO_ALL)
DEFAULT_PAYLOAD_BYTES = 32 * 1024


def _backends_for(pattern: Collective) -> list[str]:
    backends = ["S", "D", "P"]
    if pattern is Collective.ALL_TO_ALL:
        backends.insert(1, "N")
    return backends


@dataclass(frozen=True)
class CollectiveScalingResult:
    pattern: Collective
    dpu_counts: tuple[int, ...]
    payload_bytes: int
    #: speedups[backend][i] = time_B / time_backend at dpu_counts[i]
    speedups: dict[str, tuple[float, ...]]


def _point(
    machine: MachineConfig,
    pattern: str,
    num_dpus: int,
    payload_bytes: int,
    backends: list[str],
) -> dict[str, float]:
    """Speedup over the baseline per backend at one (pattern, scale)."""
    m = scaled_machine(machine, num_dpus)
    request = CollectiveRequest(
        Collective(pattern), payload_bytes, dtype=np.dtype(np.int64)
    )
    base = registry.create("B", m).timing(request).total_s
    return {
        key: base / registry.create(key, m).timing(request).total_s
        for key in backends
    }


def build_tables(
    results: tuple[CollectiveScalingResult, ...],
) -> tuple[ExperimentTable, ...]:
    """One table per panel: (a) AllReduce, (b) All-to-All."""
    tables = []
    for result in results:
        rows = []
        for i, n in enumerate(result.dpu_counts):
            rows.append(
                (n,)
                + tuple(
                    f"{result.speedups[k][i]:.2f}" for k in result.speedups
                )
            )
        panel = "a" if result.pattern is Collective.ALL_REDUCE else "b"
        tables.append(
            ExperimentTable(
                f"Fig 12{panel}",
                f"{result.pattern.value} speedup over Baseline at each "
                "DPU count",
                ("DPUs",) + tuple(result.speedups),
                tuple(rows),
                notes=f"weak scaling, {result.payload_bytes // 1024} KB "
                "per DPU",
            )
        )
    return tuple(tables)


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    points = []
    for pattern in PANEL_PATTERNS:
        for n in SCALING_DPU_COUNTS:
            points.append(
                SweepPoint(
                    len(points),
                    {
                        "pattern": pattern.value,
                        "num_dpus": n,
                        "payload_bytes": DEFAULT_PAYLOAD_BYTES,
                        "backends": _backends_for(pattern),
                    },
                )
            )
    return tuple(points)


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, float], ...]
) -> tuple[CollectiveScalingResult, ...]:
    """(AllReduce, All-to-All) sweeps — the two panels of Fig 12."""
    results = []
    per_panel = len(SCALING_DPU_COUNTS)
    for i, pattern in enumerate(PANEL_PATTERNS):
        chunk = values[i * per_panel:(i + 1) * per_panel]
        backends = _backends_for(pattern)
        result = CollectiveScalingResult(
            pattern=pattern,
            dpu_counts=SCALING_DPU_COUNTS,
            payload_bytes=DEFAULT_PAYLOAD_BYTES,
            speedups={
                key: tuple(at_n[key] for at_n in chunk) for key in backends
            },
        )
        results.append(result)
    return tuple(results)


SPEC = register_experiment(
    experiment_id="fig12",
    title="Fig 12: collective scalability of all implementations",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
