"""Analysis layer: rooflines, hardware overhead, tenancy, breakdowns."""

from .breakdown import (
    COMM_COMPONENTS,
    comm_percentages,
    format_breakdown_row,
)
from .hw_overhead import (
    AreaPowerEstimate,
    HwOverheadReport,
    address_generator_estimate,
    hardware_overhead_report,
    interchip_switch_estimate,
    per_bank_overhead_estimate,
    pimnet_stop_estimate,
    ring_router_estimate,
    sync_propagation_latency_ns,
)
from .multitenancy import (
    MultiTenancyResult,
    TenantResult,
    run_multitenancy,
)
from .roofline import RooflineModel, RooflinePoint, RooflineSeries

__all__ = [
    "COMM_COMPONENTS",
    "comm_percentages",
    "format_breakdown_row",
    "AreaPowerEstimate",
    "HwOverheadReport",
    "address_generator_estimate",
    "hardware_overhead_report",
    "interchip_switch_estimate",
    "per_bank_overhead_estimate",
    "pimnet_stop_estimate",
    "ring_router_estimate",
    "sync_propagation_latency_ns",
    "MultiTenancyResult",
    "TenantResult",
    "run_multitenancy",
    "RooflineModel",
    "RooflinePoint",
    "RooflineSeries",
]
