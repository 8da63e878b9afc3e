"""Schedule-compilation cache with payload-scaling replay.

Compiled schedules and analytic timing depend on (collective, machine
shape, network config) far more than on payload bytes.  This package
memoizes both behind structure keys and serves arbitrary payload sizes
by *exact* analytic rescaling of a cached per-structure profile — the
fast path is property-tested bit-identical to the slow path it
replaces.  See ``docs/SCHEDCACHE.md``.

Typical use::

    from repro.schedcache import cached_build_schedule, cached_schedule_timing

    schedule = cached_build_schedule(Collective.ALL_REDUCE, shape, 4096)
    times = cached_schedule_timing(
        Collective.ALL_REDUCE, shape, 8192, network
    )  # replayed from the cached profile; no rebuild
"""

from ..config.units import NOC_CYCLE_S as CYCLE_S
from .cache import (
    DEFAULT_MAX_PROFILES,
    DEFAULT_MAX_SCHEDULES,
    STORE_NAMESPACE,
    SchedCacheCounters,
    ScheduleCache,
    active_schedule_cache,
    cached_build_schedule,
    cached_schedule_timing,
    reset_worker_cache,
    use_schedule_cache,
)
from .calibrate import (
    NocCalibration,
    calibrate_schedule,
    simulate_noc_cycles,
)
from .key import ScheduleKey, StructureKey, network_fingerprint
from .profile import (
    MAX_EXACT_BYTES,
    PROFILE_VERSION,
    StepCost,
    TimingProfile,
    extract_profile,
)

__all__ = [
    "CYCLE_S",
    "DEFAULT_MAX_PROFILES",
    "DEFAULT_MAX_SCHEDULES",
    "MAX_EXACT_BYTES",
    "NocCalibration",
    "PROFILE_VERSION",
    "STORE_NAMESPACE",
    "SchedCacheCounters",
    "ScheduleCache",
    "ScheduleKey",
    "StepCost",
    "StructureKey",
    "TimingProfile",
    "active_schedule_cache",
    "cached_build_schedule",
    "cached_schedule_timing",
    "calibrate_schedule",
    "extract_profile",
    "network_fingerprint",
    "reset_worker_cache",
    "simulate_noc_cycles",
    "use_schedule_cache",
]
