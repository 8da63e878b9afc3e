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


@dataclass(slots=True)
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
    #: Each admitted entry's structure key and service time, in
    #: ``entries`` order, so the caller need not price them again.
    keys: tuple[Hashable, ...]
    costs: tuple[float, ...]

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
        """Admit entries for one occurrence of ``slot`` (see module doc).

        One scan both admits and builds the queue that remains: an
        entry the checks skip is kept in order, and so is everything
        after the entry that closes the window.
        """
        admitted: list[QueueEntry] = []
        keys: list[Hashable] = []
        costs: list[float] = []
        kept: list[QueueEntry] = []
        structures: list[Hashable] = []
        per_tenant: dict[str, int] = {}
        consumed = 0.0
        budget = slot.time_window_s * (1.0 + _BUDGET_SLACK)
        patterns = slot.patterns
        cap = slot.max_multiplexing
        accounts = self._accounts
        entries = self._entries
        for position, entry in enumerate(entries):
            request = entry.request
            if patterns and request.pattern not in patterns:
                kept.append(entry)
                continue
            tenant = entry.tenant
            taken = per_tenant.get(tenant, 0)
            if taken >= accounts[tenant].quota.max_per_slot:
                kept.append(entry)
                continue
            key = structure_key(request)
            fresh = key not in structures
            if fresh and len(structures) >= cap:
                kept.append(entry)
                continue
            cost = service_time_s(request)
            if admitted and consumed + cost > budget:
                # Strict FIFO fill: once the window cannot take the next
                # eligible entry, the occurrence is closed.
                kept.extend(entries[position:])
                break
            admitted.append(entry)
            keys.append(key)
            costs.append(cost)
            if fresh:
                structures.append(key)
            per_tenant[tenant] = taken + 1
            consumed += cost
        if admitted:
            self._entries = kept
            for entry in admitted:
                accounts[entry.tenant].queued -= 1
        return Selection(
            entries=tuple(admitted),
            consumed_s=consumed,
            structures=tuple(structures),
            keys=tuple(keys),
            costs=tuple(costs),
        )

    def drain_all(self) -> tuple[QueueEntry, ...]:
        """Remove and return everything still queued (service shutdown)."""
        entries = tuple(self._entries)
        self._entries.clear()
        for account in self._accounts.values():
            account.queued = 0
        return entries
