"""Configuration layer: units, machine shape, network tiers, compute profiles.

The defaults throughout this package reproduce the paper's evaluated
system (Tables II, IV, and VI); experiments construct variations through
the dataclasses' ``replace``-style helpers rather than by mutation.
"""

from . import units
from .compute import (
    ALT_PIM_PROFILES,
    ComputeProfile,
    Op,
    UPMEM_OP_COSTS,
    gddr6_aim_profile,
    hbm_pim_profile,
    next_gen_dpu_profile,
    upmem_profile,
)
from .conformance import ConformanceConfig
from .network import (
    BufferChipConfig,
    HostLinkConfig,
    PimnetNetworkConfig,
    TierLinkConfig,
)
from .faults import (
    FAULT_KINDS,
    FaultCampaignConfig,
    FaultModelConfig,
)
from .fleet import (
    FleetConfig,
    ShardOutageConfig,
    kill_shard_outage,
)
from .presets import (
    MachineConfig,
    pimnet_sim_system,
    small_test_system,
    upmem_server,
)
from .runner import RunnerConfig
from .service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
    default_service_config,
)
from .system import DpuConfig, HostConfig, PimSystemConfig
from .trace import TRACE_CLOCKS, TraceConfig

__all__ = [
    "units",
    "ALT_PIM_PROFILES",
    "ComputeProfile",
    "Op",
    "UPMEM_OP_COSTS",
    "gddr6_aim_profile",
    "hbm_pim_profile",
    "next_gen_dpu_profile",
    "upmem_profile",
    "BufferChipConfig",
    "ConformanceConfig",
    "HostLinkConfig",
    "PimnetNetworkConfig",
    "TierLinkConfig",
    "FAULT_KINDS",
    "FaultCampaignConfig",
    "FaultModelConfig",
    "FleetConfig",
    "ShardOutageConfig",
    "kill_shard_outage",
    "MachineConfig",
    "pimnet_sim_system",
    "small_test_system",
    "upmem_server",
    "DpuConfig",
    "HostConfig",
    "PimSystemConfig",
    "RunnerConfig",
    "ServiceConfig",
    "TenantQuotaConfig",
    "TimeSlotConfig",
    "default_service_config",
    "TRACE_CLOCKS",
    "TraceConfig",
]
