"""Fault-rate degradation sweep (resilience supplementary).

Sweeps a base fault model's rates through a range of scale factors and
runs a full campaign (:mod:`repro.faults.campaign`) at each point:
AllReduce bandwidth, completion rate, and tail latencies versus fault
rate.  Because fault sets are sampled with common random numbers
(:mod:`repro.faults.model`), the bandwidth curve is monotone
non-increasing in the rate factor *by construction* — asserted by
``monotone_bandwidth`` and the test suite, and rendered into the CI step
summary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.faults import FaultCampaignConfig, FaultModelConfig
from ..config.presets import MachineConfig
from ..faults.campaign import run_campaign
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

RATE_FACTORS = (0.0, 0.5, 1.0, 2.0, 4.0)
DEFAULTS = {
    "seed": 11,
    "trials": 16,
    "payload_bytes": 1 << 20,
}

#: Base per-component rates at factor 1.0; chosen so the sweep walks
#: from fault-free through degraded into occasional aborts.
BASE_MODEL = FaultModelConfig(
    bank_fail_stop_rate=0.001,
    bank_straggler_rate=0.01,
    straggler_severity=2.0,
    chip_link_degrade_rate=0.01,
    rank_bus_stall_rate=0.05,
    flit_corruption_rate=0.0005,
)


@dataclass(frozen=True)
class FaultSweepResult:
    rate_factors: tuple[float, ...]
    completion_rates: tuple[float, ...]
    bandwidths: tuple[float, ...]
    p50s: tuple[float, ...]
    p99s: tuple[float, ...]
    p999s: tuple[float, ...]
    mean_retries: tuple[float, ...]

    def monotone_bandwidth(self) -> bool:
        """Mean bandwidth never rises as the fault rate grows."""
        return all(
            later <= earlier + 1e-12
            for earlier, later in zip(self.bandwidths, self.bandwidths[1:])
        )


def _point(
    machine: MachineConfig,
    rate_factor: float,
    seed: int,
    trials: int,
    payload_bytes: int,
) -> dict[str, float]:
    """One rate factor: a whole campaign, reduced to its summary."""
    campaign = FaultCampaignConfig(
        name=f"fault_sweep@{rate_factor:g}",
        model=BASE_MODEL.scaled(rate_factor),
        seed=seed,
        trials=trials,
        payload_bytes=payload_bytes,
    )
    summary = run_campaign(campaign, machine).summary()
    return {
        "completion_rate": summary["completion_rate"],
        "bandwidth": summary["mean_bandwidth_bytes_per_s"],
        "p50": summary["p50_latency_s"],
        "p99": summary["p99_latency_s"],
        "p999": summary["p999_latency_s"],
        "mean_retries": summary["mean_retries"],
    }


def _assemble(
    machine: MachineConfig, values: tuple[dict, ...]
) -> FaultSweepResult:
    return FaultSweepResult(
        rate_factors=RATE_FACTORS,
        completion_rates=tuple(v["completion_rate"] for v in values),
        bandwidths=tuple(v["bandwidth"] for v in values),
        p50s=tuple(v["p50"] for v in values),
        p99s=tuple(v["p99"] for v in values),
        p999s=tuple(v["p999"] for v in values),
        mean_retries=tuple(v["mean_retries"] for v in values),
    )


def build_tables(result: FaultSweepResult) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (
            f"{factor:g}",
            f"{completion * 100:.1f}",
            f"{bw / 1e9:.4f}",
            f"{p50 * 1e6:.1f}",
            f"{p99 * 1e6:.1f}",
            f"{p999 * 1e6:.1f}",
            f"{retries:.1f}",
        )
        for factor, completion, bw, p50, p99, p999, retries in zip(
            result.rate_factors,
            result.completion_rates,
            result.bandwidths,
            result.p50s,
            result.p99s,
            result.p999s,
            result.mean_retries,
        )
    )
    return (
        ExperimentTable(
            "fault_sweep",
            "AllReduce degradation vs fault rate",
            (
                "rate factor",
                "completion %",
                "mean BW (GB/s)",
                "p50 (us)",
                "p99 (us)",
                "p999 (us)",
                "mean retries",
            ),
            rows,
            notes=(
                "common-random-numbers sampling makes the bandwidth "
                "column monotone non-increasing by construction"
            ),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"rate_factor": factor, **DEFAULTS})
        for i, factor in enumerate(RATE_FACTORS)
    )


SPEC = register_experiment(
    experiment_id="fault_sweep",
    title="Fault-rate degradation sweep (resilience)",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
