"""Fig 10: application performance across the five implementations."""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.result import CommBreakdown
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from ..workloads import compare_backends, paper_workloads
from ..workloads.base import AppResult
from .common import ExperimentTable

BACKEND_ORDER = ("B", "S", "N", "D", "P")


def app_to_jsonable(app: AppResult) -> dict:
    """JSON-safe encoding of an :class:`AppResult` (cache payloads)."""
    return {
        "workload": app.workload,
        "backend": app.backend,
        "compute_s": app.compute_s,
        "comm": app.comm.as_dict(),
        "num_collectives": app.num_collectives,
        "phase_times": [[name, t] for name, t in app.phase_times],
    }


def app_from_jsonable(data: dict) -> AppResult:
    return AppResult(
        workload=data["workload"],
        backend=data["backend"],
        compute_s=data["compute_s"],
        comm=CommBreakdown(**data["comm"]),
        num_collectives=data["num_collectives"],
        phase_times=tuple(
            (name, t) for name, t in data["phase_times"]
        ),
    )


@dataclass(frozen=True)
class ApplicationsResult:
    #: results[workload][backend] = AppResult
    results: dict[str, dict[str, AppResult]]

    def speedup(self, workload: str, backend: str = "P") -> float:
        group = self.results[workload]
        return group[backend].speedup_over(group["B"])

    def max_speedup(self) -> tuple[str, float]:
        best = max(
            self.results, key=lambda w: self.speedup(w)
        )
        return best, self.speedup(best)


def _point(machine: MachineConfig, workload: str) -> dict[str, dict]:
    """Per-backend results for one workload, JSON-encoded."""
    wl = paper_workloads()[workload]
    group = compare_backends(wl, machine, list(BACKEND_ORDER))
    return {key: app_to_jsonable(app) for key, app in group.items()}


def build_tables(result: ApplicationsResult) -> tuple[ExperimentTable, ...]:
    rows = []
    for name, group in result.results.items():
        base = group["B"]
        speedups = tuple(
            f"{group[k].speedup_over(base):.2f}" if k in group else "-"
            for k in BACKEND_ORDER
        )
        rows.append(
            (name, f"{100 * base.comm_fraction:.0f}%") + speedups
        )
    best, value = result.max_speedup()
    return (
        ExperimentTable(
            "Fig 10",
            "Application speedup over Baseline PIM",
            ("workload", "comm% (B)") + BACKEND_ORDER,
            tuple(rows),
            notes=(
                f"best PIMnet speedup: {best} at {value:.1f}x "
                "(paper: up to 11.8x on real applications)"
            ),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"workload": name})
        for i, name in enumerate(paper_workloads())
    )


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, dict], ...]
) -> ApplicationsResult:
    results = {
        name: {
            key: app_from_jsonable(encoded)
            for key, encoded in group.items()
        }
        for name, group in zip(paper_workloads(), values)
    }
    return ApplicationsResult(results=results)


SPEC = register_experiment(
    experiment_id="fig10",
    title="Fig 10: application performance",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
