"""Fig 3: collective-communication scalability of PIM implementations.

Weak scaling: the per-DPU message stays at 32 KB while the system grows
from 8 to 256 DPUs; performance is relative *throughput* (total payload
over time) normalized to the baseline system at 8 DPUs, matching the
figure's normalization.
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

BACKENDS = ("B", "S", "P")
PANEL_PATTERNS = (Collective.ALL_REDUCE, Collective.ALL_TO_ALL)
DEFAULT_PAYLOAD_BYTES = 32 * 1024


@dataclass(frozen=True)
class ScalabilityResult:
    pattern: Collective
    dpu_counts: tuple[int, ...]
    payload_bytes: int
    #: times_s[backend][i] = collective time at dpu_counts[i]
    times_s: dict[str, tuple[float, ...]]

    def normalized_throughput(self) -> dict[str, tuple[float, ...]]:
        """Relative throughput, normalized to baseline at 8 DPUs."""
        base = self.times_s["B"][0] / self.dpu_counts[0]
        out: dict[str, tuple[float, ...]] = {}
        for key, times in self.times_s.items():
            out[key] = tuple(
                (n / t) * base
                for n, t in zip(self.dpu_counts, times)
            )
        return out


def _point(
    machine: MachineConfig,
    pattern: str,
    num_dpus: int,
    payload_bytes: int,
    backends: list[str],
) -> dict[str, float]:
    """Collective time per backend at one (pattern, scale) sweep point."""
    m = scaled_machine(machine, num_dpus)
    request = CollectiveRequest(
        Collective(pattern), payload_bytes, dtype=np.dtype(np.int64)
    )
    return {
        key: registry.create(key, m).timing(request).total_s
        for key in backends
    }


def build_tables(
    results: tuple[ScalabilityResult, ...],
) -> tuple[ExperimentTable, ...]:
    """One table per panel: (a) AllReduce, (b) All-to-All."""
    tables = []
    for result in results:
        rel = result.normalized_throughput()
        rows = []
        for i, n in enumerate(result.dpu_counts):
            rows.append(
                (n,)
                + tuple(f"{rel[k][i]:.2f}" for k in result.times_s)
            )
        panel = "a" if result.pattern is Collective.ALL_REDUCE else "b"
        tables.append(
            ExperimentTable(
                f"Fig 3{panel}",
                f"{result.pattern.value} weak-scaling throughput "
                "(normalized to Baseline @ 8 DPUs)",
                ("DPUs",) + tuple(result.times_s),
                tuple(rows),
                notes=f"per-DPU payload {result.payload_bytes // 1024} KB",
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
                        "backends": list(BACKENDS),
                    },
                )
            )
    return tuple(points)


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, float], ...]
) -> tuple[ScalabilityResult, ...]:
    """(AllReduce, All-to-All) sweeps — the two panels of Fig 3."""
    results = []
    per_panel = len(SCALING_DPU_COUNTS)
    for i, pattern in enumerate(PANEL_PATTERNS):
        chunk = values[i * per_panel:(i + 1) * per_panel]
        result = ScalabilityResult(
            pattern=pattern,
            dpu_counts=SCALING_DPU_COUNTS,
            payload_bytes=DEFAULT_PAYLOAD_BYTES,
            times_s={
                key: tuple(at_n[key] for at_n in chunk) for key in BACKENDS
            },
        )
        results.append(result)
    return tuple(results)


SPEC = register_experiment(
    experiment_id="fig03",
    title="Fig 3: collective scalability motivation",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
