"""Deterministic fault injection and resilience campaigns.

The paper's fabric is buffer-less and statically scheduled, so its
failure modes are unusually sharp: a dead DPU makes a schedule
*infeasible* (there is no routing freedom to mask it), while a slow DPU
drags every bulk-synchronous phase behind it.  This package models both,
plus link degradation, bus stalls, and transient flit corruption, across
all three tiers — and does it reproducibly: every fault set is a pure
function of ``(seed, machine config, campaign spec)``.

The fault model is closed-form only: a fault stretches or aborts a
fault-free :class:`~repro.collectives.CollectiveResult`; the cycle-level
NoC simulator (:mod:`repro.noc`) always runs the fault-free fabric.

Layers:

* :mod:`repro.faults.model` — seeded sampling of concrete fault sets,
  with common-random-numbers nesting so fault-rate sweeps are monotone;
* :mod:`repro.faults.engine` — closed-form degraded
  :class:`~repro.collectives.CollectiveResult` per trial;
* :mod:`repro.faults.campaign` — many-trial campaigns with degradation
  statistics (completion rate, bandwidth, tail latencies).

With no faults configured, the engine returns the fault-free result
unchanged.
"""

from .campaign import (
    CAMPAIGN_PRESETS,
    CampaignResult,
    TrialOutcome,
    percentile,
    run_campaign,
    trial_seed,
)
from .engine import collective_under_faults
from .model import (
    FaultEvent,
    FaultSet,
    bank_name,
    chip_name,
    component_rng,
    corruption_uniforms,
    sample_fault_set,
)

__all__ = [
    "CAMPAIGN_PRESETS",
    "CampaignResult",
    "TrialOutcome",
    "percentile",
    "run_campaign",
    "trial_seed",
    "collective_under_faults",
    "FaultEvent",
    "FaultSet",
    "bank_name",
    "chip_name",
    "component_rng",
    "corruption_uniforms",
    "sample_fault_set",
]
