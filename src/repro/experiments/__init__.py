"""Experiment drivers: one module per paper figure/table.

Importing this package registers every driver's
:class:`~repro.runner.ExperimentSpec` in :data:`repro.runner.REGISTRY`.
An experiment runs only through its spec::

    from repro.runner import run_experiment

    run = run_experiment("fig12")
    run.result   # the typed result the paper-shape tests read
    print(run.format())   # the paper-shaped tables

or from the shell, ``python -m repro run fig12``.
"""

from . import (
    ablations,
    characterization,
    fault_sweep,
    fig02_roofline,
    fig03_motivation,
    fig10_applications,
    fig11_comm_breakdown,
    fig12_collective_scaling,
    fig13_flow_control,
    fig14_bandwidth_sweep,
    fig15_alt_pim,
    fig16_multichannel,
    fig17_multitenancy,
    fleet_resilience,
    hw_overhead,
    message_size_sweep,
    noc_load_latency,
    prim_suite,
    straggler_tail,
    table04_tiers,
    table05_algorithms,
    tenant_service_load,
)
from .common import ExperimentTable, SCALING_DPU_COUNTS, scaled_machine

__all__ = [
    "ablations",
    "characterization",
    "fault_sweep",
    "noc_load_latency",
    "prim_suite",
    "straggler_tail",
    "ExperimentTable",
    "SCALING_DPU_COUNTS",
    "scaled_machine",
    "fig02_roofline",
    "fig03_motivation",
    "fig10_applications",
    "fig11_comm_breakdown",
    "fig12_collective_scaling",
    "fig13_flow_control",
    "fig14_bandwidth_sweep",
    "fig15_alt_pim",
    "fig16_multichannel",
    "fig17_multitenancy",
    "fleet_resilience",
    "hw_overhead",
    "message_size_sweep",
    "table04_tiers",
    "table05_algorithms",
    "tenant_service_load",
]
