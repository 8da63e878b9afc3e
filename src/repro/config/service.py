"""Multi-tenant collective-service configuration.

The serving layer (:mod:`repro.service`) admits concurrent collective
requests through a repeating **cycle of time slots** — the structure of
squidasm's ``StaticScheduleProtocol`` adapted to PIMnet's static
schedules.  Each :class:`TimeSlotConfig` opens a window for a set of
collective patterns; slots are separated by a switch (dead) time during
which the fabric reconfigures; ``max_multiplexing`` bounds how many
distinct schedule *structures* may share one window (requests with the
same structure batch onto one compiled schedule and differ only in
payload, which the schedule cache replays exactly).

Pattern names are stored as plain strings (the :class:`Collective` enum
values) so configs stay JSON-serializable and this module stays below
:mod:`repro.collectives` in the import layering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigurationError
from .units import check_number

__all__ = [
    "KNOWN_PATTERNS",
    "ServiceConfig",
    "TenantQuotaConfig",
    "TimeSlotConfig",
    "default_service_config",
]

#: The seven collective patterns, mirroring ``Collective`` values
#: (pinned by a test so the two can never drift apart).
KNOWN_PATTERNS = (
    "reduce_scatter",
    "all_gather",
    "all_reduce",
    "all_to_all",
    "broadcast",
    "reduce",
    "gather",
)
_KNOWN = frozenset(KNOWN_PATTERNS)


@dataclass(frozen=True)
class TimeSlotConfig:
    """One slot of the admission cycle.

    ``patterns`` lists the collective patterns the slot accepts (empty
    means *any* pattern); ``time_window_s`` is the slot's service
    budget per occurrence; ``max_multiplexing`` caps the number of
    distinct schedule structures admitted into one occurrence.
    """

    name: str
    patterns: tuple[str, ...] = ()
    time_window_s: float = 1e-3
    max_multiplexing: int = 1

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("time slot name must be a non-empty string")
        object.__setattr__(self, "patterns", tuple(self.patterns))
        for pattern in self.patterns:
            if pattern not in _KNOWN:
                raise ConfigurationError(
                    f"slot {self.name!r} names unknown pattern {pattern!r}; "
                    f"known patterns: {', '.join(KNOWN_PATTERNS)}"
                )
        if len(set(self.patterns)) != len(self.patterns):
            raise ConfigurationError(
                f"slot {self.name!r} lists a pattern more than once"
            )
        check_number(self.time_window_s, f"slot {self.name!r} time_window_s",
                     ConfigurationError, above=0)
        check_number(self.max_multiplexing,
                     f"slot {self.name!r} max_multiplexing",
                     ConfigurationError, integer=True, at_least=1)


@dataclass(frozen=True)
class TenantQuotaConfig:
    """Per-tenant admission limits.

    ``max_queued`` bounds how many of one tenant's requests may wait in
    the admission queue at once (excess submissions are *rejected*, with
    a reason — the backpressure signal); ``max_per_slot`` bounds how
    many of the tenant's requests one slot occurrence may serve.
    """

    max_queued: int = 64
    max_per_slot: int = 8

    def __post_init__(self) -> None:
        for attr in ("max_queued", "max_per_slot"):
            check_number(getattr(self, attr), f"tenant quota {attr}",
                         ConfigurationError, integer=True, at_least=1)


@dataclass(frozen=True)
class ServiceConfig:
    """The admission cycle plus global and per-tenant backpressure.

    ``switch_time_s`` is the dead time between consecutive slots (fabric
    reconfiguration); the full cycle time is
    ``sum(slot windows) + len(slots) * switch_time_s``, mirroring
    squidasm's ``full_cycle_time``.  ``queue_limit`` bounds the total
    admission queue across all tenants.
    """

    slots: tuple[TimeSlotConfig, ...]
    switch_time_s: float = 50e-6
    queue_limit: int = 256
    default_quota: TenantQuotaConfig = field(default_factory=TenantQuotaConfig)
    #: (tenant name, quota) overrides, kept as a sorted tuple of pairs
    #: so the config stays hashable and canonically serializable.
    tenant_quotas: tuple[tuple[str, TenantQuotaConfig], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise ConfigurationError("service needs at least one time slot")
        names = [slot.name for slot in self.slots]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"slot names must be unique, got {names}"
            )
        check_number(self.switch_time_s, "switch_time_s", ConfigurationError,
                     at_least=0)
        check_number(self.queue_limit, "queue_limit", ConfigurationError,
                     integer=True, at_least=1)
        quotas = tuple(sorted(
            ((str(tenant), quota) for tenant, quota in self.tenant_quotas),
            key=lambda pair: pair[0],
        ))
        for tenant, _ in quotas:
            if not tenant:
                raise ConfigurationError("tenant quota name must be non-empty")
        if len({tenant for tenant, _ in quotas}) != len(quotas):
            raise ConfigurationError("duplicate tenant quota override")
        object.__setattr__(self, "tenant_quotas", quotas)

    @property
    def cycle_time_s(self) -> float:
        """One full pass over the cycle, switch times included."""
        return (
            sum(slot.time_window_s for slot in self.slots)
            + len(self.slots) * self.switch_time_s
        )

    def quota_for(self, tenant: str) -> TenantQuotaConfig:
        for name, quota in self.tenant_quotas:
            if name == tenant:
                return quota
        return self.default_quota


def default_service_config(
    patterns: Sequence[str] | None = None,
    time_window_s: float = 1e-3,
    switch_time_s: float = 50e-6,
    max_multiplexing: int = 1,
    queue_limit: int = 256,
    default_quota: TenantQuotaConfig | None = None,
) -> ServiceConfig:
    """One slot per pattern — the static TDM schedule squidasm calls a
    "schema", covering every collective the machine serves."""
    chosen = tuple(patterns) if patterns is not None else KNOWN_PATTERNS
    if not chosen:
        raise ConfigurationError("default_service_config needs >= 1 pattern")
    slots = tuple(
        TimeSlotConfig(
            name=pattern,
            patterns=(pattern,),
            time_window_s=time_window_s,
            max_multiplexing=max_multiplexing,
        )
        for pattern in chosen
    )
    return ServiceConfig(
        slots=slots,
        switch_time_s=switch_time_s,
        queue_limit=queue_limit,
        default_quota=default_quota or TenantQuotaConfig(),
    )
