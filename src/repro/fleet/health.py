"""Per-shard health, driven by deterministic fault injection.

A shard is ``healthy`` until a fault campaign lands on it.  The health
verdict comes straight from the sampled :class:`~repro.faults.model.
FaultSet`: a *fatal* set (dead banks or failed chip links — a static
schedule cannot complete) takes the shard ``down``; any non-fatal
faults (stragglers, degraded links, bus stalls) mark it ``degraded``
— still serving, but deprioritized by the router.  Reviving a shard
clears its fault set and returns it to ``healthy``.

Every transition is logged with the fleet submission count at which it
happened, so a run's health history is a deterministic, assertable
artifact (the ``fleet_resilience`` golden pins it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from ..errors import FleetError
from ..faults.model import FaultSet

__all__ = [
    "HealthTracker",
    "HealthTransition",
    "ShardHealth",
    "health_of",
]


class ShardHealth(enum.Enum):
    """Routing-relevant shard states, ordered best to worst."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"

    @property
    def serving(self) -> bool:
        """Whether the router may send requests to a shard in this state."""
        return self is not ShardHealth.DOWN


def health_of(fault_set: FaultSet) -> ShardHealth:
    """Map a sampled fault set onto the shard health it implies."""
    if fault_set.fatal:
        return ShardHealth.DOWN
    if fault_set:
        return ShardHealth.DEGRADED
    return ShardHealth.HEALTHY


@dataclass(frozen=True)
class HealthTransition:
    """One state change: when (fleet submissions so far), where, why."""

    at_submission: int
    shard: int
    old: ShardHealth
    new: ShardHealth
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "at_submission": self.at_submission,
            "shard": self.shard,
            "old": self.old.value,
            "new": self.new.value,
            "reason": self.reason,
        }


class HealthTracker:
    """Current state per shard plus the full transition log."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise FleetError(f"health tracker needs >= 1 shard, got {shards}")
        #: State per shard index.  Read it freely; change it only
        #: through :meth:`mark`, which keeps ``version`` in step.
        self.current = [ShardHealth.HEALTHY] * shards
        #: Bumped by every state change, so routing memos derived from
        #: ``current`` know when to recompute.
        self.version = 0
        self.transitions: list[HealthTransition] = []

    def __len__(self) -> int:
        return len(self.current)

    def _check(self, shard: int) -> None:
        if not 0 <= shard < len(self.current):
            raise FleetError(
                f"shard {shard} out of range (fleet has "
                f"{len(self.current)} shard(s))"
            )

    def state(self, shard: int) -> ShardHealth:
        self._check(shard)
        return self.current[shard]

    def mark(
        self,
        shard: int,
        new: ShardHealth,
        reason: str,
        at_submission: int = 0,
    ) -> bool:
        """Move ``shard`` to ``new``; returns whether anything changed."""
        self._check(shard)
        old = self.current[shard]
        if old is new:
            return False
        self.current[shard] = new
        self.version += 1
        self.transitions.append(
            HealthTransition(
                at_submission=at_submission,
                shard=shard,
                old=old,
                new=new,
                reason=reason,
            )
        )
        return True

    def apply_fault_set(
        self, shard: int, fault_set: FaultSet, at_submission: int = 0
    ) -> ShardHealth:
        """Derive and record the health a sampled fault set implies."""
        new = health_of(fault_set)
        reason = (
            f"{len(fault_set.events)} fault event(s) injected"
            if fault_set
            else "fault set empty"
        )
        self.mark(shard, new, reason, at_submission)
        return new

    def revive(self, shard: int, at_submission: int = 0) -> None:
        self.mark(shard, ShardHealth.HEALTHY, "shard revived", at_submission)

    def counts(self) -> dict[str, int]:
        return {
            state.value: sum(1 for s in self.current if s is state)
            for state in ShardHealth
        }
