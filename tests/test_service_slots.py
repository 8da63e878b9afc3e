"""Service config validation and the resolved time-slot cycle."""

import pytest

from repro.collectives.patterns import Collective
from repro.config.service import (
    KNOWN_PATTERNS,
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
    default_service_config,
)
from repro.errors import ConfigurationError
from repro.service import SlotCycle

pytestmark = pytest.mark.service


class TestKnownPatterns:
    def test_matches_collective_enum_exactly(self):
        assert set(KNOWN_PATTERNS) == {c.value for c in Collective}


class TestTimeSlotConfig:
    def test_rejects_unknown_pattern(self):
        with pytest.raises(ConfigurationError, match="unknown pattern"):
            TimeSlotConfig("bad", ("all_redcue",))

    def test_rejects_duplicate_patterns(self):
        with pytest.raises(ConfigurationError, match="more than once"):
            TimeSlotConfig("dup", ("all_reduce", "all_reduce"))

    def test_rejects_non_positive_window(self):
        with pytest.raises(ConfigurationError, match="time_window_s"):
            TimeSlotConfig("w", time_window_s=0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            TimeSlotConfig("w", time_window_s=float("inf"))

    def test_rejects_bad_multiplexing(self):
        with pytest.raises(ConfigurationError, match="max_multiplexing"):
            TimeSlotConfig("m", max_multiplexing=0)

    def test_empty_patterns_means_any(self):
        slot = TimeSlotConfig("any")
        assert slot.patterns == ()


class TestQuotaConfig:
    def test_rejects_non_positive_limits(self):
        with pytest.raises(ConfigurationError, match="max_queued"):
            TenantQuotaConfig(max_queued=0)
        with pytest.raises(ConfigurationError, match="max_per_slot"):
            TenantQuotaConfig(max_per_slot=-1)


class TestServiceConfig:
    def test_needs_at_least_one_slot(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ServiceConfig(slots=())

    def test_rejects_duplicate_slot_names(self):
        slot = TimeSlotConfig("s", ("all_reduce",))
        with pytest.raises(ConfigurationError, match="unique"):
            ServiceConfig(slots=(slot, slot))

    def test_rejects_negative_switch_time(self):
        with pytest.raises(ConfigurationError, match="switch_time_s"):
            ServiceConfig(
                slots=(TimeSlotConfig("s"),), switch_time_s=-1e-6
            )

    def test_rejects_bad_queue_limit(self):
        with pytest.raises(ConfigurationError, match="queue_limit"):
            ServiceConfig(slots=(TimeSlotConfig("s"),), queue_limit=0)

    def test_rejects_duplicate_tenant_quota(self):
        with pytest.raises(ConfigurationError, match="duplicate tenant"):
            ServiceConfig(
                slots=(TimeSlotConfig("s"),),
                tenant_quotas=(
                    ("a", TenantQuotaConfig()),
                    ("a", TenantQuotaConfig(max_queued=2)),
                ),
            )

    def test_cycle_time_mirrors_static_schedule(self):
        # full_cycle_time = sum(windows) + n_slots * switch_time.
        config = ServiceConfig(
            slots=(
                TimeSlotConfig("a", time_window_s=1e-3),
                TimeSlotConfig("b", time_window_s=2e-3),
            ),
            switch_time_s=1e-6,
        )
        assert config.cycle_time_s == pytest.approx(3e-3 + 2e-6)

    def test_quota_lookup_falls_back_to_default(self):
        special = TenantQuotaConfig(max_queued=2, max_per_slot=1)
        config = ServiceConfig(
            slots=(TimeSlotConfig("s"),),
            default_quota=TenantQuotaConfig(max_queued=9),
            tenant_quotas=(("vip", special),),
        )
        assert config.quota_for("vip") == special
        assert config.quota_for("anyone") == config.default_quota


class TestSlotCycle:
    def test_default_config_accepts_every_pattern(self):
        cycle = SlotCycle(default_service_config())
        for pattern in Collective:
            assert cycle.accepts(pattern)
            assert any(slot.accepts(pattern) for slot in cycle.slots)

    def test_positions_wrap_around(self):
        cycle = SlotCycle(default_service_config(("all_reduce", "gather")))
        assert len(cycle) == 2
        assert cycle.slot_at(0).name == "all_reduce"
        assert cycle.slot_at(1).name == "gather"
        assert cycle.slot_at(2).name == "all_reduce"
        assert cycle.cycle_of(0) == 0
        assert cycle.cycle_of(3) == 1

    def test_wildcard_slot_accepts_everything(self):
        cycle = SlotCycle(
            ServiceConfig(slots=(TimeSlotConfig("any"),))
        )
        for pattern in Collective:
            assert cycle.slot_at(0).accepts(pattern)

    def test_restricted_slot_filters(self):
        cycle = SlotCycle(default_service_config(("broadcast",)))
        assert not cycle.accepts(Collective.ALL_REDUCE)
        assert cycle.accepts(Collective.BROADCAST)
