"""Bounded admission queue with per-tenant quotas.

Every submission gets an explicit outcome — ``REJECTED`` at the door
(queue full, tenant over quota, pattern no slot serves), ``QUEUED``
while waiting, ``ADMITTED`` once a slot occurrence serves it.  There is
no silent-drop path: a request leaves the queue only by admission, and
rejection always carries a reason string.

Selection for one slot occurrence scans the queue in FIFO order and
admits entries subject to four checks:

* the slot's pattern filter,
* the tenant's ``max_per_slot`` quota,
* the slot's ``max_multiplexing`` cap on *distinct* schedule
  structures (same-structure requests batch onto one compiled
  schedule and replay with their own payloads), and
* the slot's time-window budget — with a single-oversize allowance:
  a request whose service time alone exceeds the window is still
  admitted when the window is empty (the occurrence overruns and the
  overrun is recorded), otherwise it could never be served.

The scan stops at the first entry that fails the *budget* check, so
admission is strictly FIFO with respect to service order: an entry is
never overtaken by a later entry merely because the later one is
smaller.  Pattern/quota/multiplexing skips do not reorder same-tenant,
same-structure entries (the skip decision is identical for all of them
within one occurrence), which is the invariant the hypothesis suite
pins.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from ..collectives.patterns import CollectiveRequest
from ..config.service import ServiceConfig, TenantQuotaConfig
from .slots import TimeSlot

__all__ = ["AdmissionQueue", "Outcome", "QueueEntry", "Selection"]

#: Relative slack on the window-budget comparison, so float roundoff in
#: accumulated service times never flips an admission decision.
_BUDGET_SLACK = 1e-12


class Outcome(enum.Enum):
    """The explicit fate of one submission."""

    REJECTED = "rejected"
    QUEUED = "queued"
    ADMITTED = "admitted"


@dataclass
class QueueEntry:
    """One queued request, in arrival order."""

    sequence: int
    tenant: str
    request: CollectiveRequest
    arrival_s: float
    #: Opaque completion handle (an asyncio future in the live service;
    #: tests drive the queue without one).
    handle: Any = None


@dataclass(frozen=True)
class Selection:
    """What one slot occurrence admitted, and its time accounting."""

    entries: tuple[QueueEntry, ...]
    consumed_s: float
    structures: tuple[Hashable, ...]

    @property
    def count(self) -> int:
        return len(self.entries)


@dataclass
class _TenantAccount:
    queued: int = 0
    quota: TenantQuotaConfig = field(default_factory=TenantQuotaConfig)


class AdmissionQueue:
    """FIFO queue bounded globally and per tenant."""

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config
        self._entries: list[QueueEntry] = []
        self._accounts: dict[str, _TenantAccount] = {}

    def _account(self, tenant: str) -> _TenantAccount:
        account = self._accounts.get(tenant)
        if account is None:
            account = _TenantAccount(quota=self._config.quota_for(tenant))
            self._accounts[tenant] = account
        return account

    @property
    def depth(self) -> int:
        return len(self._entries)

    def try_enqueue(self, entry: QueueEntry) -> str | None:
        """Queue ``entry``; the rejection reason if it cannot be held."""
        if len(self._entries) >= self._config.queue_limit:
            return (
                f"admission queue full "
                f"(queue_limit={self._config.queue_limit})"
            )
        account = self._account(entry.tenant)
        if account.queued >= account.quota.max_queued:
            return (
                f"tenant {entry.tenant!r} over quota "
                f"(max_queued={account.quota.max_queued})"
            )
        self._entries.append(entry)
        account.queued += 1
        return None

    def select(
        self,
        slot: TimeSlot,
        structure_key: Callable[[CollectiveRequest], Hashable],
        service_time_s: Callable[[CollectiveRequest], float],
    ) -> Selection:
        """Admit entries for one occurrence of ``slot`` (see module doc)."""
        admitted: list[QueueEntry] = []
        structures: list[Hashable] = []
        seen: set[Hashable] = set()
        per_tenant: dict[str, int] = {}
        consumed = 0.0
        budget = slot.time_window_s * (1.0 + _BUDGET_SLACK)
        for entry in self._entries:
            if not slot.accepts(entry.request.pattern):
                continue
            quota = self._account(entry.tenant).quota
            if per_tenant.get(entry.tenant, 0) >= quota.max_per_slot:
                continue
            key = structure_key(entry.request)
            if key not in seen and len(seen) >= slot.max_multiplexing:
                continue
            cost = service_time_s(entry.request)
            if admitted and consumed + cost > budget:
                # Strict FIFO fill: once the window cannot take the next
                # eligible entry, the occurrence is closed.
                break
            admitted.append(entry)
            if key not in seen:
                seen.add(key)
                structures.append(key)
            per_tenant[entry.tenant] = per_tenant.get(entry.tenant, 0) + 1
            consumed += cost
        if admitted:
            chosen = set(id(entry) for entry in admitted)
            self._entries = [
                entry for entry in self._entries if id(entry) not in chosen
            ]
            for entry in admitted:
                self._accounts[entry.tenant].queued -= 1
        return Selection(
            entries=tuple(admitted),
            consumed_s=consumed,
            structures=tuple(structures),
        )

    def drain_all(self) -> tuple[QueueEntry, ...]:
        """Remove and return everything still queued (service shutdown)."""
        entries = tuple(self._entries)
        self._entries.clear()
        for account in self._accounts.values():
            account.queued = 0
        return entries
