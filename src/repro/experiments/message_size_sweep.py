"""Message-size sensitivity sweep (supplementary experiment).

Sweeps per-DPU payloads from 256 B to 1 MB for AllReduce and All-to-All
across all backends, reporting where PIMnet's advantage comes from at
each size: at tiny messages the baseline's fixed host overheads dominate
(PIMnet wins on latency); at large messages bandwidth dominates (PIMnet
wins on the fabric's aggregate rate); in between lies the ideal
software's best operating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

PAYLOADS = tuple(256 * (4 ** e) for e in range(7))  # 256 B .. 1 MiB
BACKENDS = ("B", "S", "D", "P")
PANEL_PATTERNS = (Collective.ALL_REDUCE, Collective.ALL_TO_ALL)


@dataclass(frozen=True)
class SizeSweepResult:
    pattern: Collective
    payloads: tuple[int, ...]
    #: times_s[backend][i]
    times_s: dict[str, tuple[float, ...]]

    def speedup_series(self, over: str = "B") -> dict[str, tuple[float, ...]]:
        base = self.times_s[over]
        return {
            key: tuple(b / t for b, t in zip(base, times))
            for key, times in self.times_s.items()
        }

    def pimnet_speedup_peak(self) -> tuple[int, float]:
        """(payload, speedup) where PIMnet's gain over B peaks."""
        series = self.speedup_series()["P"]
        index = max(range(len(series)), key=lambda i: series[i])
        return self.payloads[index], series[index]


def _point(
    machine: MachineConfig, pattern: str, payload_bytes: int
) -> dict[str, float]:
    """Collective time per backend for one (pattern, payload) cell."""
    request = CollectiveRequest(
        Collective(pattern), payload_bytes, dtype=np.dtype(np.int64)
    )
    return {
        key: registry.create(key, machine).timing(request).total_s
        for key in BACKENDS
    }


def build_tables(
    results: tuple[SizeSweepResult, ...],
) -> tuple[ExperimentTable, ...]:
    """One table per pattern: AllReduce, then All-to-All."""
    tables = []
    for result in results:
        speedups = result.speedup_series()
        rows = []
        for i, payload in enumerate(result.payloads):
            label = (
                f"{payload // 1024} KiB" if payload >= 1024
                else f"{payload} B"
            )
            rows.append(
                (label,)
                + tuple(
                    f"{result.times_s[k][i] * 1e6:.1f}" for k in BACKENDS
                )
                + tuple(f"{speedups[k][i]:.1f}x" for k in ("S", "P"))
            )
        peak_payload, peak = result.pimnet_speedup_peak()
        tables.append(
            ExperimentTable(
                f"Size sweep ({result.pattern.value})",
                "Collective time (us) vs per-DPU payload, 256 DPUs",
                ("payload",)
                + tuple(f"{k} us" for k in BACKENDS)
                + ("S speedup", "P speedup"),
                tuple(rows),
                notes=(
                    f"PIMnet gain peaks at {peak_payload} B/DPU: "
                    f"{peak:.1f}x over baseline"
                ),
            )
        )
    return tuple(tables)


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    points = []
    for pattern in PANEL_PATTERNS:
        for payload in PAYLOADS:
            points.append(
                SweepPoint(
                    len(points),
                    {"pattern": pattern.value, "payload_bytes": payload},
                )
            )
    return tuple(points)


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, float], ...]
) -> tuple[SizeSweepResult, ...]:
    """(AllReduce, All-to-All) sweeps over the same payloads."""
    results = []
    per_panel = len(PAYLOADS)
    for i, pattern in enumerate(PANEL_PATTERNS):
        chunk = values[i * per_panel:(i + 1) * per_panel]
        result = SizeSweepResult(
            pattern=pattern,
            payloads=PAYLOADS,
            times_s={
                key: tuple(at_p[key] for at_p in chunk) for key in BACKENDS
            },
        )
        results.append(result)
    return tuple(results)


SPEC = register_experiment(
    experiment_id="size_sweep",
    title="Size sweep: message-size sensitivity",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
