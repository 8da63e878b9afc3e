"""PIMnet — the paper's core contribution.

Design goals and how they are met (Table III):

* **Low-radix network** — inter-bank connectivity is a ring
  (:mod:`repro.core.schedule`), so every PIMnet stop is radix-2 plus a
  WRAM tap.
* **Simplified arbitration** — none at all: communication is statically
  scheduled so no two transfers ever contend for a link
  (:mod:`repro.core.schedule`, verified by the contention-freedom tests).
* **No network buffers** — the stop (:mod:`repro.core.stop`) is a
  registered pass-through; determinism makes queueing impossible.
* **Minimized pins** — every tier reuses existing wires: the partitioned
  bank I/O bus, the DQ pins, and the multi-drop DDR bus
  (:class:`repro.config.PimnetNetworkConfig`).
"""

from .addressing import (
    AllReduceAddressGenerator,
    AllReducePlan,
    PhasePlan,
)
from .api import (
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
from .collectives import PIMNET_ALGORITHMS, TierAlgorithm, algorithm_chain
from .pimnet import PimnetBackend
from .schedule import (
    CommSchedule,
    Phase,
    ScheduleChain,
    Shape,
    Step,
    Tier,
    Transfer,
    allgather_schedule,
    allreduce_schedule,
    alltoall_schedule,
    broadcast_schedule,
    build_schedule,
    chain_timing,
    execute_schedule,
    gather_schedule,
    owned_range,
    reduce_scatter_schedule,
    reduce_schedule,
    schedule_timing,
)
from .stop import PimnetStopSpec, SwitchSpec
from .sync import SyncReport, SyncTree
from .timeline import (
    CollectiveTimeline,
    TimelineEntry,
    allreduce_timeline,
    format_timeline,
)
from .timing import PimnetTimingModel, TierTimes
from .validate import (
    validate_bounds,
    validate_no_write_races,
    validate_contention_free,
    validate_schedule,
    validate_tier_locality,
)

__all__ = [
    "AllReduceAddressGenerator",
    "AllReducePlan",
    "PhasePlan",
    "pimnet_all_gather",
    "pimnet_all_reduce",
    "pimnet_all_to_all",
    "pimnet_broadcast",
    "pimnet_gather",
    "pimnet_reduce",
    "pimnet_reduce_scatter",
    "pimnet_schedule_times",
    "pimnet_service",
    "PIMNET_ALGORITHMS",
    "TierAlgorithm",
    "algorithm_chain",
    "PimnetBackend",
    "CommSchedule",
    "Phase",
    "ScheduleChain",
    "Shape",
    "Step",
    "Tier",
    "Transfer",
    "allgather_schedule",
    "allreduce_schedule",
    "alltoall_schedule",
    "broadcast_schedule",
    "build_schedule",
    "chain_timing",
    "execute_schedule",
    "gather_schedule",
    "owned_range",
    "reduce_scatter_schedule",
    "reduce_schedule",
    "schedule_timing",
    "PimnetStopSpec",
    "SwitchSpec",
    "SyncReport",
    "SyncTree",
    "CollectiveTimeline",
    "TimelineEntry",
    "allreduce_timeline",
    "format_timeline",
    "PimnetTimingModel",
    "TierTimes",
    "validate_bounds",
    "validate_no_write_races",
    "validate_contention_free",
    "validate_schedule",
    "validate_tier_locality",
]
