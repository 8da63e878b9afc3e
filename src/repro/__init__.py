"""PIMnet reproduction: a domain-specific network for scalable PIM.

Reproduces Son et al., *PIMnet: A Domain-Specific Network for Efficient
Collective Communication in Scalable PIM* (HPCA 2025): an UPMEM-style
PIM system model, host-mediated and prior-work collective backends, the
PIMnet multi-tier statically scheduled interconnect, a cycle-level NoC
simulator for the flow-control study, the paper's eight workloads, and
drivers for every evaluation figure and table.

Quickstart::

    import numpy as np
    from repro import pimnet_all_reduce, pimnet_sim_system

    machine = pimnet_sim_system()
    rng = np.random.default_rng(0)
    buffers = [
        rng.integers(0, 100, 1024, dtype=np.int64)
        for _ in range(machine.system.banks_per_channel)
    ]
    result = pimnet_all_reduce(buffers, machine)
    print(result.time_s, result.breakdown.as_dict())
"""

from .collectives import (
    Collective,
    CollectiveRequest,
    CollectiveResult,
    CommBreakdown,
    ReduceOp,
    registry,
)
from .config import (
    MachineConfig,
    PimSystemConfig,
    PimnetNetworkConfig,
    pimnet_sim_system,
    small_test_system,
    upmem_server,
)
from .core import (
    PimnetBackend,
    Shape,
    pimnet_all_gather,
    pimnet_all_reduce,
    pimnet_all_to_all,
    pimnet_broadcast,
    pimnet_gather,
    pimnet_reduce,
    pimnet_reduce_scatter,
    pimnet_schedule_times,
    pimnet_service,
)
from .schedcache import ScheduleCache, use_schedule_cache
from .service import CollectiveService, ServiceResponse
from .fleet import FleetResponse, FleetRouter
from .config import TraceConfig
from .errors import ReproError
from .observability import (
    Instrumentation,
    MetricsRegistry,
    Tracer,
    build_instrumentation,
)

__version__ = "1.0.0"

__all__ = [
    "Collective",
    "CollectiveRequest",
    "CollectiveResult",
    "CommBreakdown",
    "ReduceOp",
    "registry",
    "MachineConfig",
    "PimSystemConfig",
    "PimnetNetworkConfig",
    "pimnet_sim_system",
    "small_test_system",
    "upmem_server",
    "PimnetBackend",
    "Shape",
    "pimnet_all_gather",
    "pimnet_all_reduce",
    "pimnet_all_to_all",
    "pimnet_broadcast",
    "pimnet_gather",
    "pimnet_reduce",
    "pimnet_reduce_scatter",
    "pimnet_schedule_times",
    "pimnet_service",
    "ScheduleCache",
    "use_schedule_cache",
    "CollectiveService",
    "ServiceResponse",
    "FleetResponse",
    "FleetRouter",
    "ReproError",
    "Instrumentation",
    "MetricsRegistry",
    "TraceConfig",
    "Tracer",
    "build_instrumentation",
    "__version__",
]
