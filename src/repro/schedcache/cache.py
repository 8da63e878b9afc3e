"""The schedule-compilation cache: compile once per structure, replay.

:class:`ScheduleCache` fronts :func:`~repro.core.schedule.build_schedule`
and :func:`~repro.core.schedule.schedule_timing` with two tiers of
memoization:

* **schedules** — an LRU of compiled :class:`CommSchedule` objects,
  keyed on (collective, shape, payload, root).  Schedules are frozen
  dataclass trees, so cached objects are safely shared.
* **timing profiles** — payload-invariant analytic step costs
  (:class:`~repro.schedcache.profile.TimingProfile`), keyed on
  (collective, shape, root, itemsize, network fingerprint).  A profile
  hit serves *any* payload by exact analytic replay — no schedule is
  built at all — falling back to fresh compilation when the payload
  does not divide the structure or exceeds the float-exactness bound.

Both tiers live in memory only: a run compiles each structure once and
replays it from then on.

Process-pool safety: the cache records its owning PID and empties
itself on first touch after a ``fork`` — each worker gets a private
cache whose counters start at zero.  Counters are mirrored into
``schedcache.*`` metrics, so worker stats fold back into the parent
through the same registry merge the runner already does for worker
metrics.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator

from ..collectives.patterns import Collective
from ..core.schedule import (
    CommSchedule,
    Shape,
    Tier,
    build_schedule,
    schedule_timing,
)
from ..errors import SchedCacheError
from ..observability import metric_counter, trace_span
from .calibrate import NocCalibration, calibrate_schedule
from .key import ScheduleKey, StructureKey
from .profile import TimingProfile, extract_profile

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..config.network import PimnetNetworkConfig

#: Compiled schedules kept in memory (large objects; LRU-evicted).
DEFAULT_MAX_SCHEDULES = 64
#: Timing profiles kept in memory (tiny; LRU-evicted far later).
DEFAULT_MAX_PROFILES = 1024


@dataclass
class SchedCacheCounters:
    """Per-instance event counts (mirrored into ``schedcache.*`` metrics)."""

    schedule_hits: int = 0
    schedule_misses: int = 0
    schedule_evictions: int = 0
    profile_hits: int = 0
    profile_misses: int = 0
    profile_evictions: int = 0
    timing_replays: int = 0
    timing_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def _count(counters: SchedCacheCounters, field: str) -> None:
    setattr(counters, field, getattr(counters, field) + 1)
    metric_counter(f"schedcache.{field.replace('_', '.', 1)}").inc()


class ScheduleCache:
    """Structure-keyed compilation cache (see module docstring)."""

    def __init__(
        self,
        max_schedules: int = DEFAULT_MAX_SCHEDULES,
        max_profiles: int = DEFAULT_MAX_PROFILES,
    ) -> None:
        if max_schedules < 1:
            raise SchedCacheError(
                f"max_schedules must be >= 1, got {max_schedules}"
            )
        if max_profiles < 1:
            raise SchedCacheError(
                f"max_profiles must be >= 1, got {max_profiles}"
            )
        self.max_schedules = max_schedules
        self.max_profiles = max_profiles
        self.counters = SchedCacheCounters()
        self._schedules: OrderedDict[ScheduleKey, CommSchedule] = (
            OrderedDict()
        )
        self._profiles: OrderedDict[StructureKey, TimingProfile] = (
            OrderedDict()
        )
        self._calibrations: dict[StructureKey, NocCalibration] = {}
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # -- process-pool safety ---------------------------------------------------
    def reset_if_forked(self) -> bool:
        """Empty the cache if this process is not the one that filled it.

        Fork-pool workers inherit the parent's cache by COW; serving from
        it would make worker hit counters double-report parent work and
        worker ``stats()`` lie about what *this* process did.  Returns
        whether a reset happened.
        """
        if os.getpid() == self._pid:
            return False
        with self._lock:
            if os.getpid() == self._pid:  # raced with another thread
                return False
            self._schedules.clear()
            self._profiles.clear()
            self._calibrations.clear()
            self.counters = SchedCacheCounters()
            self._pid = os.getpid()
        return True

    # -- compiled schedules ----------------------------------------------------
    def build(
        self,
        pattern: Collective,
        shape: Shape,
        num_elements: int,
        root: int = 0,
    ) -> CommSchedule:
        """``build_schedule`` through the LRU memo."""
        self.reset_if_forked()
        key = ScheduleKey.for_build(pattern, shape, num_elements, root)
        with self._lock:
            cached = self._schedules.get(key)
            if cached is not None:
                self._schedules.move_to_end(key)
                _count(self.counters, "schedule_hits")
                return cached
        # Compile outside the lock: builds can be slow and are
        # deterministic, so a racing duplicate build is merely wasted
        # work, never an inconsistency.
        _count(self.counters, "schedule_misses")
        with trace_span(
            "schedcache/build",
            category="schedcache",
            pattern=pattern.value,
            num_elements=num_elements,
        ):
            schedule = build_schedule(pattern, shape, num_elements, root)
        with self._lock:
            self._schedules[key] = schedule
            self._schedules.move_to_end(key)
            while len(self._schedules) > self.max_schedules:
                self._schedules.popitem(last=False)
                _count(self.counters, "schedule_evictions")
        return schedule

    # -- timing profiles -------------------------------------------------------
    def profile(
        self,
        pattern: Collective,
        shape: Shape,
        network: "PimnetNetworkConfig",
        root: int = 0,
        itemsize: int = 8,
        base_elements: int | None = None,
    ) -> TimingProfile:
        """Fetch (or compile) the structure's timing profile.

        On a miss the profile is extracted from a schedule built at
        ``base_elements`` (default: one element per DPU, the smallest
        payload every Table V pattern divides) and kept in memory.
        """
        self.reset_if_forked()
        key = StructureKey.for_structure(
            pattern, shape, network, root, itemsize
        )
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self._profiles.move_to_end(key)
                _count(self.counters, "profile_hits")
                return cached
        _count(self.counters, "profile_misses")
        if base_elements is None:
            base_elements = shape.num_dpus
        with trace_span(
            "schedcache/profile",
            category="schedcache",
            structure=key.label(),
            base_elements=base_elements,
        ):
            schedule = self.build(pattern, shape, base_elements, root)
            profile = extract_profile(schedule, itemsize=itemsize, root=root)
        self._remember_profile(key, profile)
        return profile

    def _remember_profile(
        self, key: StructureKey, profile: TimingProfile
    ) -> None:
        with self._lock:
            self._profiles[key] = profile
            self._profiles.move_to_end(key)
            while len(self._profiles) > self.max_profiles:
                evicted, _ = self._profiles.popitem(last=False)
                self._calibrations.pop(evicted, None)
                _count(self.counters, "profile_evictions")

    # -- analytic timing -------------------------------------------------------
    def timing(
        self,
        pattern: Collective,
        shape: Shape,
        num_elements: int,
        network: "PimnetNetworkConfig",
        root: int = 0,
        itemsize: int = 8,
    ) -> dict[Tier, float]:
        """Per-tier analytic times, replayed from the cached profile.

        Bit-identical to ``schedule_timing(build_schedule(...))`` —
        replayed when the profile covers ``num_elements`` exactly,
        computed fresh (and the first request compiles the profile at
        this payload, making later payloads pure replays) otherwise.
        """
        self.reset_if_forked()
        key = StructureKey.for_structure(
            pattern, shape, network, root, itemsize
        )
        with self._lock:
            profile = self._profiles.get(key)
            if profile is not None:
                self._profiles.move_to_end(key)
        if profile is not None and profile.exact_for(num_elements):
            _count(self.counters, "timing_replays")
            with trace_span(
                "schedcache/replay",
                category="schedcache",
                structure=key.label(),
                num_elements=num_elements,
            ):
                return profile.times(num_elements, network)
        # Miss or out-of-model payload: compute fresh, and seed the
        # profile from this payload's schedule so the structure replays
        # from here on.
        if profile is None:
            _count(self.counters, "profile_misses")
        else:
            _count(self.counters, "timing_fallbacks")
        schedule = self.build(pattern, shape, num_elements, root)
        times = schedule_timing(schedule, network, itemsize=itemsize)
        if profile is None:
            try:
                fresh = extract_profile(
                    schedule, itemsize=itemsize, root=root
                )
            except SchedCacheError:
                fresh = None  # outside the rescaling model; stay slow
            if fresh is not None:
                self._remember_profile(key, fresh)
        return times

    # -- flit-level calibration ------------------------------------------------
    def calibration(
        self,
        pattern: Collective,
        shape: Shape,
        network: "PimnetNetworkConfig",
        root: int = 0,
        itemsize: int = 8,
        base_elements: int | None = None,
    ) -> NocCalibration:
        """The structure's flit-level calibration (one sim run, memoized)."""
        self.reset_if_forked()
        key = StructureKey.for_structure(
            pattern, shape, network, root, itemsize
        )
        with self._lock:
            cached = self._calibrations.get(key)
        if cached is not None:
            return cached
        if base_elements is None:
            base_elements = shape.num_dpus
        with trace_span(
            "schedcache/calibrate",
            category="schedcache",
            structure=key.label(),
            base_elements=base_elements,
        ):
            schedule = self.build(pattern, shape, base_elements, root)
            calibration = calibrate_schedule(
                schedule, network, itemsize=itemsize
            )
        with self._lock:
            self._calibrations[key] = calibration
        return calibration

    # -- introspection ---------------------------------------------------------
    def clear(self) -> None:
        """Drop all entries and reset counters."""
        with self._lock:
            self._schedules.clear()
            self._profiles.clear()
            self._calibrations.clear()
            self.counters = SchedCacheCounters()

    def stats(self) -> dict:
        """JSON-ready snapshot: sizes, counters, and per-profile shape."""
        with self._lock:
            profiles = [
                {
                    "structure": key.label(),
                    "base_elements": profile.base_elements,
                    "steps": len(profile.steps),
                }
                for key, profile in self._profiles.items()
            ]
            return {
                "pid": self._pid,
                "schedules": len(self._schedules),
                "max_schedules": self.max_schedules,
                "profiles": len(self._profiles),
                "max_profiles": self.max_profiles,
                "calibrations": len(self._calibrations),
                "counters": self.counters.as_dict(),
                "profile_entries": profiles,
            }


# --------------------------------------------------------------------------
# The process-default cache and its helpers.
# --------------------------------------------------------------------------

_DEFAULT_CACHE = ScheduleCache()
_ACTIVE: ScheduleCache | None = None


def active_schedule_cache() -> ScheduleCache:
    """The cache library code should use (override > process default)."""
    return _ACTIVE if _ACTIVE is not None else _DEFAULT_CACHE


@contextmanager
def use_schedule_cache(cache: ScheduleCache) -> Iterator[ScheduleCache]:
    """Temporarily route ``cached_*`` helpers through ``cache``."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous


def reset_worker_cache() -> bool:
    """Fork-safety hook for pool workers (no-op in the owning process)."""
    return active_schedule_cache().reset_if_forked()


def cached_build_schedule(
    pattern: Collective,
    shape: Shape,
    num_elements: int,
    root: int = 0,
) -> CommSchedule:
    """``build_schedule`` through the active cache."""
    return active_schedule_cache().build(pattern, shape, num_elements, root)


def cached_schedule_timing(
    pattern: Collective,
    shape: Shape,
    num_elements: int,
    network: "PimnetNetworkConfig",
    root: int = 0,
    itemsize: int = 8,
) -> dict[Tier, float]:
    """``schedule_timing`` through the active cache (exact replay on hit)."""
    return active_schedule_cache().timing(
        pattern, shape, num_elements, network, root=root, itemsize=itemsize
    )
