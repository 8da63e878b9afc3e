"""Fig 2: roofline models showing the benefit of a PIM interconnect."""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.roofline import RooflineModel, RooflineSeries
from ..config.presets import MachineConfig
from ..runner.registry import register_monolithic
from .common import ExperimentTable, default_machine


@dataclass(frozen=True)
class RooflineResult:
    classic: tuple[RooflineSeries, ...]
    comm: tuple[RooflineSeries, ...]
    peak_ops_per_s: float

    def ceiling_ratio(self, a: str = "P", b: str = "S") -> float:
        """Throughput-ceiling ratio of two implementations (paper: ~8x)."""
        by_key_classic = {s.backend: s for s in self.classic}
        return (
            by_key_classic[a].ceiling() / by_key_classic[b].ceiling()
        )


def run(machine: MachineConfig | None = None) -> RooflineResult:
    model = RooflineModel(machine or default_machine())
    return RooflineResult(
        classic=tuple(model.all_series("classic")),
        comm=tuple(model.all_series("comm")),
        peak_ops_per_s=model.peak_ops_per_s(),
    )


def build_tables(result: RooflineResult) -> tuple[ExperimentTable, ...]:
    intensities = [p.intensity for p in result.comm[0].points]
    columns = ("comm intensity (ops/B)",) + tuple(
        s.backend for s in result.comm
    )
    rows = []
    for i, ci in enumerate(intensities):
        rows.append(
            (f"{ci:g}",)
            + tuple(f"{s.points[i].ops_per_s / 1e9:.4g}" for s in result.comm)
        )
    table_b = ExperimentTable(
        "Fig 2b",
        "Communication roofline (GOPS attainable per backend)",
        columns,
        tuple(rows),
        notes=(
            f"peak = {result.peak_ops_per_s / 1e9:.3g} GOPS; "
            f"PIMnet/Software(Ideal) ceiling ratio = "
            f"{result.ceiling_ratio():.1f}x (paper: ~8x)"
        ),
    )
    oi = [p.intensity for p in result.classic[0].points]
    rows_a = []
    for i, x in enumerate(oi):
        rows_a.append(
            (f"{x:g}",)
            + tuple(
                f"{s.points[i].ops_per_s / 1e9:.4g}" for s in result.classic
            )
        )
    table_a = ExperimentTable(
        "Fig 2a",
        "Classic roofline with communication ceilings (GOPS)",
        ("operational intensity (ops/B)",)
        + tuple(s.backend for s in result.classic),
        tuple(rows_a),
    )
    return (table_a, table_b)


SPEC = register_monolithic(
    "fig02", "Fig 2: roofline models", run, build_tables
)
