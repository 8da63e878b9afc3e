"""Straggler tail-latency study (resilience supplementary).

Holds the straggler *rate* fixed and sweeps the severity (the slowdown
multiplier of the slowest DPU): because PIMnet collectives are
bulk-synchronous, one slow bank drags every phase, so the latency tail
grows with severity while the median moves much less.  Common random
numbers give every severity point the *same* straggler set — only the
multiplier changes — so p99 latency is non-decreasing in severity by
construction (asserted in tests and the CI step summary).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.faults import FaultCampaignConfig, FaultModelConfig
from ..config.presets import MachineConfig
from ..faults.campaign import run_campaign
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

SEVERITIES = (1.0, 1.5, 2.0, 4.0, 8.0)
DEFAULTS = {
    "seed": 23,
    "trials": 16,
    "payload_bytes": 1 << 20,
    "straggler_rate": 0.05,
}


@dataclass(frozen=True)
class StragglerTailResult:
    severities: tuple[float, ...]
    p50s: tuple[float, ...]
    p99s: tuple[float, ...]
    p999s: tuple[float, ...]
    degraded_fractions: tuple[float, ...]


def _point(
    machine: MachineConfig,
    severity: float,
    seed: int,
    trials: int,
    payload_bytes: int,
    straggler_rate: float,
) -> dict[str, float]:
    campaign = FaultCampaignConfig(
        name=f"straggler_tail@{severity:g}",
        model=FaultModelConfig(
            bank_straggler_rate=straggler_rate,
            straggler_severity=severity,
        ),
        seed=seed,
        trials=trials,
        payload_bytes=payload_bytes,
    )
    result = run_campaign(campaign, machine)
    summary = result.summary()
    return {
        "p50": summary["p50_latency_s"],
        "p99": summary["p99_latency_s"],
        "p999": summary["p999_latency_s"],
        "degraded_fraction": (
            summary["degraded"] / summary["trials"]
        ),
    }


def _assemble(
    machine: MachineConfig, values: tuple[dict, ...]
) -> StragglerTailResult:
    return StragglerTailResult(
        severities=SEVERITIES,
        p50s=tuple(v["p50"] for v in values),
        p99s=tuple(v["p99"] for v in values),
        p999s=tuple(v["p999"] for v in values),
        degraded_fractions=tuple(v["degraded_fraction"] for v in values),
    )


def build_tables(result: StragglerTailResult) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (
            f"{severity:g}",
            f"{p50 * 1e6:.1f}",
            f"{p99 * 1e6:.1f}",
            f"{p999 * 1e6:.1f}",
            f"{frac * 100:.0f}",
        )
        for severity, p50, p99, p999, frac in zip(
            result.severities,
            result.p50s,
            result.p99s,
            result.p999s,
            result.degraded_fractions,
        )
    )
    return (
        ExperimentTable(
            "straggler_tail",
            "AllReduce latency tail vs straggler severity",
            (
                "severity (x)",
                "p50 (us)",
                "p99 (us)",
                "p999 (us)",
                "degraded %",
            ),
            rows,
            notes=(
                "bulk-synchronous phases wait for the slowest DPU, so "
                "the tail grows with severity while the median holds"
            ),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"severity": severity, **DEFAULTS})
        for i, severity in enumerate(SEVERITIES)
    )


SPEC = register_experiment(
    experiment_id="straggler_tail",
    title="Straggler tail-latency study (resilience)",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
