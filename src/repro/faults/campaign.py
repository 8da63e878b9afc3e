"""Resilience campaigns: many seeded trials -> degradation statistics.

A campaign is a pure function of ``(FaultCampaignConfig, MachineConfig)``
— trial seeds derive from the campaign seed and the trial index, so the
runner's content-addressed cache can treat every campaign (and every
sweep point built from one) as replayable.  Latency percentiles use the
nearest-rank method: deterministic, exact on small samples, and free of
interpolation-order surprises across numpy versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.faults import FaultCampaignConfig, FaultModelConfig
from ..config.presets import MachineConfig
from ..errors import FaultError
from ..observability import (
    LogBucketSketch,
    metric_counter,
    metric_histogram,
    observability_active,
    trace_span,
)
from .engine import collective_under_faults
from .model import sample_fault_set

#: Spreads campaign seeds so trial streams of nearby campaign seeds
#: never collide (trial indices stay far below this prime).
_TRIAL_SEED_STRIDE = 1_000_003

#: Ready-made campaigns for ``repro faults run <name>``; each isolates
#: one fault family so its cost model can be read off the output.
CAMPAIGN_PRESETS: dict[str, FaultCampaignConfig] = {
    "stragglers": FaultCampaignConfig(
        name="stragglers",
        model=FaultModelConfig(
            bank_straggler_rate=0.05, straggler_severity=4.0
        ),
        description="5% of banks up to 4x slow; tail-latency study",
    ),
    "degraded-links": FaultCampaignConfig(
        name="degraded-links",
        model=FaultModelConfig(
            chip_link_degrade_rate=0.1, chip_link_degrade_factor=2.0
        ),
        description="10% of DQ links at half bandwidth (marginal pins)",
    ),
    "bus-stalls": FaultCampaignConfig(
        name="bus-stalls",
        model=FaultModelConfig(
            rank_bus_stall_rate=0.5, rank_bus_stall_s=2e-6
        ),
        description="inter-rank DDR bus stalls 2us, half the trials",
    ),
    "corruption": FaultCampaignConfig(
        name="corruption",
        model=FaultModelConfig(
            flit_corruption_rate=0.001, retry_penalty_flits=2
        ),
        description="1e-3 transient flit corruption, detect + retry",
    ),
    "fail-stop": FaultCampaignConfig(
        name="fail-stop",
        model=FaultModelConfig(bank_fail_stop_rate=0.005),
        description="0.5% dead banks; schedule infeasibility and aborts",
    ),
    "mixed": FaultCampaignConfig(
        name="mixed",
        model=FaultModelConfig(
            bank_fail_stop_rate=0.001,
            bank_straggler_rate=0.02,
            straggler_severity=2.0,
            chip_link_degrade_rate=0.02,
            rank_bus_stall_rate=0.1,
            flit_corruption_rate=0.0005,
        ),
        description="all fault families at modest rates",
    ),
}


def trial_seed(campaign_seed: int, trial: int) -> int:
    """The engine seed of one campaign trial (pure arithmetic)."""
    if campaign_seed < 0 or trial < 0:
        raise FaultError("campaign seed and trial index must be >= 0")
    return campaign_seed * _TRIAL_SEED_STRIDE + trial


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in (0, 100]).

    Delegates to the shared :class:`LogBucketSketch`, the one percentile
    engine the repo uses (metric histograms, per-tenant latencies) —
    exact here, since campaign samples stay far below the sketch's
    exact-mode cap.
    """
    if not 0.0 < q <= 100.0:
        raise FaultError(f"percentile q must be in (0, 100], got {q}")
    if not values:
        return 0.0
    sketch = LogBucketSketch()
    for value in values:
        sketch.observe(value)
    result = sketch.quantile(q)
    assert result is not None
    return result


@dataclass(frozen=True)
class TrialOutcome:
    """One trial of a campaign, reduced to its reportable numbers."""

    trial: int
    seed: int
    status: str
    time_s: float
    bandwidth_bytes_per_s: float
    retries: int
    fault_time_s: float
    critical_node: str
    num_faults: int


@dataclass(frozen=True)
class CampaignResult:
    """All trials of one campaign plus derived degradation statistics."""

    name: str
    payload_bytes: int
    trials: tuple[TrialOutcome, ...]

    def _count(self, status: str) -> int:
        return sum(1 for t in self.trials if t.status == status)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def degraded(self) -> int:
        return self._count("degraded")

    @property
    def aborted(self) -> int:
        return self._count("aborted")

    @property
    def completion_rate(self) -> float:
        """Fraction of trials that delivered a result (late counts)."""
        if not self.trials:
            return 0.0
        return 1.0 - self.aborted / len(self.trials)

    @property
    def mean_bandwidth_bytes_per_s(self) -> float:
        """Mean over *all* trials; aborted trials contribute zero."""
        if not self.trials:
            return 0.0
        return sum(t.bandwidth_bytes_per_s for t in self.trials) / len(
            self.trials
        )

    @property
    def delivered_latencies_s(self) -> list[float]:
        return [t.time_s for t in self.trials if t.status != "aborted"]

    def latency_percentile_s(self, q: float) -> float:
        """Nearest-rank latency percentile over delivered trials.

        Zero when every trial aborted — there is no latency to report,
        and the completion rate already tells that story.
        """
        return percentile(self.delivered_latencies_s, q)

    def summary(self) -> dict:
        """Flat JSON-able digest (CLI ``--json`` and sweep points)."""
        return {
            "name": self.name,
            "trials": len(self.trials),
            "completed": self.completed,
            "degraded": self.degraded,
            "aborted": self.aborted,
            "completion_rate": self.completion_rate,
            "mean_bandwidth_bytes_per_s": self.mean_bandwidth_bytes_per_s,
            "p50_latency_s": self.latency_percentile_s(50.0),
            "p99_latency_s": self.latency_percentile_s(99.0),
            "p999_latency_s": self.latency_percentile_s(99.9),
            "mean_retries": (
                sum(t.retries for t in self.trials) / len(self.trials)
                if self.trials
                else 0.0
            ),
        }


def run_campaign(
    campaign: FaultCampaignConfig, machine: MachineConfig
) -> CampaignResult:
    """Execute every trial of ``campaign`` on ``machine``.

    Deterministic end to end: the i-th trial samples its fault set from
    :func:`trial_seed`, runs the closed-form engine, and nothing consults
    the clock or global RNG state.
    """
    campaign.validate_for(machine.system)
    span = (
        trace_span(
            f"faults/campaign/{campaign.name}",
            category="faults",
            trials=campaign.trials,
            seed=campaign.seed,
            payload_bytes=campaign.payload_bytes,
        )
        if observability_active()
        else None
    )
    outcomes: list[TrialOutcome] = []
    for trial in range(campaign.trials):
        seed = trial_seed(campaign.seed, trial)
        fault_set = sample_fault_set(
            campaign.model, machine.system, seed, campaign.targets
        )
        result = collective_under_faults(
            machine,
            campaign.model,
            seed,
            campaign.payload_bytes,
            collective=campaign.collective,
            backend=campaign.backend,
            fault_set=fault_set,
        )
        bandwidth = (
            campaign.payload_bytes / result.time_s
            if result.completed and result.time_s > 0
            else 0.0
        )
        outcomes.append(
            TrialOutcome(
                trial=trial,
                seed=seed,
                status=result.status,
                time_s=result.time_s,
                bandwidth_bytes_per_s=bandwidth,
                retries=result.retries,
                fault_time_s=result.fault_time_s,
                critical_node=result.critical_node,
                num_faults=len(fault_set.events),
            )
        )
    result = CampaignResult(
        name=campaign.name,
        payload_bytes=campaign.payload_bytes,
        trials=tuple(outcomes),
    )
    if span is not None:
        with span as s:
            s.set_attributes(**{
                k: v
                for k, v in result.summary().items()
                if isinstance(v, (int, float))
            })
        metric_counter("faults.campaigns").inc()
        metric_counter("faults.trials").inc(len(outcomes))
        labels = {"campaign": campaign.name}
        latency = metric_histogram("faults.latency_s", labels)
        for outcome in outcomes:
            metric_counter(
                f"faults.outcome.{outcome.status}", labels
            ).inc()
            if outcome.status != "aborted":
                latency.observe(outcome.time_s)
    return result
