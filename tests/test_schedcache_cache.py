"""ScheduleCache mechanics: LRU, metrics, fork guard, NoC calibration.

Complements ``test_schedcache_keys.py`` (what addresses an entry) and
``test_schedcache_profile.py`` (what a replay returns) with the cache
container itself: eviction order, counter mirroring into
``schedcache.*`` metrics, the post-fork reset, and the memoized
flit-level calibration.
"""

from __future__ import annotations

import pytest

from repro.collectives.patterns import Collective
from repro.config.network import PimnetNetworkConfig
from repro.core.schedule import Shape
from repro.errors import SchedCacheError
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.schedcache import (
    ScheduleCache,
    active_schedule_cache,
    cached_build_schedule,
    use_schedule_cache,
)

NETWORK = PimnetNetworkConfig()
SHAPE = Shape(banks=2, chips=2, ranks=1)
AR = Collective.ALL_REDUCE


class TestScheduleLRU:
    def test_repeat_build_hits(self):
        cache = ScheduleCache()
        first = cache.build(AR, SHAPE, 64)
        assert cache.build(AR, SHAPE, 64) is first
        assert cache.counters.schedule_hits == 1
        assert cache.counters.schedule_misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = ScheduleCache(max_schedules=2)
        cache.build(AR, SHAPE, 64)   # A
        cache.build(AR, SHAPE, 128)  # B
        cache.build(AR, SHAPE, 64)   # touch A -> B is now LRU
        cache.build(AR, SHAPE, 256)  # C evicts B
        assert cache.counters.schedule_evictions == 1
        cache.build(AR, SHAPE, 64)   # A survived
        assert cache.counters.schedule_hits == 2
        cache.build(AR, SHAPE, 128)  # B did not
        assert cache.counters.schedule_misses == 4

    def test_profile_eviction(self):
        cache = ScheduleCache(max_profiles=1)
        cache.profile(AR, SHAPE, NETWORK)
        cache.profile(Collective.ALL_TO_ALL, SHAPE, NETWORK)
        assert cache.counters.profile_evictions == 1
        cache.profile(AR, SHAPE, NETWORK)  # recompiled, not remembered
        assert cache.counters.profile_misses == 3

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_schedules": 0}, {"max_profiles": -1}],
        ids=["schedules", "profiles"],
    )
    def test_invalid_capacity_rejected(self, kwargs):
        with pytest.raises(SchedCacheError):
            ScheduleCache(**kwargs)


class TestCountersAndMetrics:
    def test_counters_mirror_into_metrics(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            cache = ScheduleCache()
            cache.timing(AR, SHAPE, 64, NETWORK)
            cache.timing(AR, SHAPE, 128, NETWORK)
        snapshot = registry.snapshot()
        assert snapshot["schedcache.profile.misses"]["value"] == 1
        assert snapshot["schedcache.timing.replays"]["value"] == 1
        assert snapshot["schedcache.schedule.misses"]["value"] == 1

    def test_clear_resets_counters_and_contents(self):
        cache = ScheduleCache()
        cache.timing(AR, SHAPE, 64, NETWORK)
        cache.clear()
        stats = cache.stats()
        assert stats["schedules"] == 0
        assert stats["profiles"] == 0
        assert all(v == 0 for v in stats["counters"].values())

    def test_stats_shape(self):
        cache = ScheduleCache()
        cache.profile(AR, SHAPE, NETWORK)
        stats = cache.stats()
        assert stats["profiles"] == 1
        (entry,) = stats["profile_entries"]
        assert entry["structure"].startswith("all_reduce@2x2x1")
        assert entry["base_elements"] == SHAPE.num_dpus
        assert entry["steps"] >= 1


class TestActiveCache:
    def test_use_schedule_cache_overrides_and_restores(self):
        default = active_schedule_cache()
        override = ScheduleCache()
        with use_schedule_cache(override) as cache:
            assert cache is override
            assert active_schedule_cache() is override
            cached_build_schedule(AR, SHAPE, 64)
        assert active_schedule_cache() is default
        assert override.counters.schedule_misses == 1

    def test_fork_guard_empties_an_inherited_cache(self):
        cache = ScheduleCache()
        cache.timing(AR, SHAPE, 64, NETWORK)
        assert not cache.reset_if_forked()  # owning process: no-op
        cache._pid = cache._pid - 1  # simulate a fork-inherited copy
        assert cache.reset_if_forked()
        stats = cache.stats()
        assert stats["schedules"] == 0 and stats["profiles"] == 0
        assert all(v == 0 for v in stats["counters"].values())


class TestNocEstimates:
    def test_calibration_is_memoized(self):
        cache = ScheduleCache()
        first = cache.calibration(AR, SHAPE, NETWORK)
        assert cache.calibration(AR, SHAPE, NETWORK) is first
        assert first.base_noc_cycles > 0
