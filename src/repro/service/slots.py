"""Runtime time-slot cycle resolved from :class:`ServiceConfig`.

The config layer stores patterns as strings; here they are resolved to
:class:`Collective` members once, and the cycle exposes the position
arithmetic the scheduler loop needs (slot at position, cycle length,
which slots accept a pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.patterns import Collective
from ..config.service import ServiceConfig, TimeSlotConfig

__all__ = ["SlotCycle", "TimeSlot"]


@dataclass(frozen=True)
class TimeSlot:
    """One resolved slot: pattern filter, window, multiplexing cap."""

    index: int
    name: str
    patterns: frozenset[Collective]
    time_window_s: float
    max_multiplexing: int

    def accepts(self, pattern: Collective) -> bool:
        """Empty pattern set means the slot takes any collective."""
        return not self.patterns or pattern in self.patterns


def _resolve(index: int, config: TimeSlotConfig) -> TimeSlot:
    return TimeSlot(
        index=index,
        name=config.name,
        patterns=frozenset(Collective(p) for p in config.patterns),
        time_window_s=config.time_window_s,
        max_multiplexing=config.max_multiplexing,
    )


class SlotCycle:
    """The repeating admission schedule: slots + switch dead time."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.slots: tuple[TimeSlot, ...] = tuple(
            _resolve(i, slot) for i, slot in enumerate(config.slots)
        )
        self.switch_time_s = config.switch_time_s
        self.cycle_time_s = config.cycle_time_s
        #: pattern -> whether any slot accepts it.
        self._accepts: dict[Collective, bool] = {}

    def __len__(self) -> int:
        return len(self.slots)

    def slot_at(self, position: int) -> TimeSlot:
        """The slot serving occurrence ``position`` (wraps around)."""
        return self.slots[position % len(self.slots)]

    def cycle_of(self, position: int) -> int:
        """Which full pass over the schema ``position`` falls in."""
        return position // len(self.slots)

    def accepts(self, pattern: Collective) -> bool:
        accepted = self._accepts.get(pattern)
        if accepted is None:
            accepted = self._accepts[pattern] = any(
                slot.accepts(pattern) for slot in self.slots
            )
        return accepted

