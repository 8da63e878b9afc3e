"""Shard health: fault sets map to states, transitions are logged."""

import pytest

from repro.config import small_test_system
from repro.config.faults import FaultModelConfig
from repro.errors import FleetError
from repro.faults.model import sample_fault_set
from repro.fleet import (
    HealthTracker,
    ShardHealth,
    health_of,
)

pytestmark = pytest.mark.fleet

SYSTEM = small_test_system().system


def serving_shards(tracker: HealthTracker) -> tuple[int, ...]:
    """Indices of shards the router may route to (not down)."""
    return tuple(i for i in range(len(tracker)) if tracker.state(i).serving)


def fault_set(model: FaultModelConfig, seed: int = 0):
    return sample_fault_set(model, SYSTEM, seed, ())


class TestHealthOf:
    def test_empty_fault_set_is_healthy(self):
        assert health_of(fault_set(FaultModelConfig())) is ShardHealth.HEALTHY

    def test_fatal_fault_set_is_down(self):
        dead = fault_set(FaultModelConfig(bank_fail_stop_rate=1.0))
        assert dead.fatal
        assert health_of(dead) is ShardHealth.DOWN

    def test_nonfatal_fault_set_is_degraded(self):
        slow = fault_set(
            FaultModelConfig(
                bank_straggler_rate=1.0, straggler_severity=2.0
            )
        )
        assert slow and not slow.fatal
        assert health_of(slow) is ShardHealth.DEGRADED

    def test_serving(self):
        assert ShardHealth.HEALTHY.serving
        assert ShardHealth.DEGRADED.serving
        assert not ShardHealth.DOWN.serving


class TestHealthTracker:
    def test_starts_all_healthy(self):
        tracker = HealthTracker(3)
        assert [tracker.state(i) for i in range(3)] == [ShardHealth.HEALTHY] * 3
        assert serving_shards(tracker) == (0, 1, 2)
        assert tracker.transitions == []

    def test_mark_logs_a_transition(self):
        tracker = HealthTracker(3)
        changed = tracker.mark(1, ShardHealth.DOWN, "killed", at_submission=7)
        assert changed
        assert tracker.state(1) is ShardHealth.DOWN
        assert serving_shards(tracker) == (0, 2)
        (transition,) = tracker.transitions
        assert transition.to_dict() == {
            "at_submission": 7,
            "shard": 1,
            "old": "healthy",
            "new": "down",
            "reason": "killed",
        }

    def test_marking_the_same_state_is_a_noop(self):
        tracker = HealthTracker(2)
        assert not tracker.mark(0, ShardHealth.HEALTHY, "still fine")
        assert tracker.transitions == []
        assert tracker.version == 0

    def test_version_counts_state_changes(self):
        tracker = HealthTracker(2)
        tracker.mark(0, ShardHealth.DEGRADED, "straggler")
        tracker.mark(0, ShardHealth.DEGRADED, "still slow")
        assert tracker.version == 1
        tracker.revive(0)
        assert tracker.version == 2
        assert tracker.current == [ShardHealth.HEALTHY] * 2

    def test_apply_fault_set_then_revive(self):
        tracker = HealthTracker(2)
        dead = fault_set(FaultModelConfig(bank_fail_stop_rate=1.0))
        state = tracker.apply_fault_set(0, dead, at_submission=4)
        assert state is ShardHealth.DOWN
        tracker.revive(0, at_submission=9)
        assert tracker.state(0) is ShardHealth.HEALTHY
        assert [t.new for t in tracker.transitions] == [
            ShardHealth.DOWN, ShardHealth.HEALTHY,
        ]
        assert [t.at_submission for t in tracker.transitions] == [4, 9]

    def test_counts(self):
        tracker = HealthTracker(3)
        tracker.mark(0, ShardHealth.DOWN, "killed")
        tracker.mark(1, ShardHealth.DEGRADED, "straggler")
        assert tracker.counts() == {"healthy": 1, "degraded": 1, "down": 1}

    def test_out_of_range_raises(self):
        tracker = HealthTracker(2)
        with pytest.raises(FleetError):
            tracker.state(2)
        with pytest.raises(FleetError):
            tracker.mark(-1, ShardHealth.DOWN, "nope")

    def test_zero_shards_rejected(self):
        with pytest.raises(FleetError):
            HealthTracker(0)
