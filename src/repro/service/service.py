"""Asyncio multi-tenant collective service over the PIMnet machine.

:class:`CollectiveService` accepts concurrent :class:`CollectiveRequest`
submissions from named tenants and admits them through the time-slot
cycle of :mod:`repro.service.slots` — squidasm's
``StaticScheduleProtocol`` adapted to PIMnet's static schedules.  The
scheduler advances a **simulated clock** (never the wall clock): each
slot occurrence selects admissible requests FIFO (see
:mod:`repro.service.admission`), batches the ones sharing a schedule
structure onto one compiled schedule
(:func:`repro.schedcache.cached_build_schedule` — compiled once per
structure, then payload-scaling replay via
:func:`~repro.schedcache.cached_schedule_timing`), stamps each request's
completion time, and resolves its future.  Requests whose payload the
static-schedule compiler cannot take (element count not divisible by
the DPU count) fall back to the closed-form timing model; the response
records which path priced it.

Determinism: there is no real I/O and no wall-clock dependence, so a
given submission interleaving produces byte-identical responses, which
is what lets ``tenant_service_load`` keep a golden fixture.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Mapping

from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig, pimnet_sim_system
from ..config.service import ServiceConfig, default_service_config
from ..core.pimnet import PimnetBackend
from ..errors import CollectiveError, ScheduleError, ServiceError
from ..observability import (
    LogBucketSketch,
    metric_counter,
    metric_gauge,
    metric_histogram,
    metrics_active,
)
from .admission import AdmissionQueue, Outcome, QueueEntry
from .slots import SlotCycle, TimeSlot

__all__ = [
    "CLOSED_REASON",
    "CollectiveService",
    "OccurrenceRecord",
    "ServiceResponse",
    "TenantStats",
]

#: Substrate label under which service latencies land in the existing
#: ``tenant.request_latency_s{substrate=..., tenant=...}`` family.
SERVICE_SUBSTRATE = "Service"

#: Rejection reason stamped on requests still queued when the service
#: closes.  The fleet router (:mod:`repro.fleet`) matches on this exact
#: string to tell a shard outage (retryable on another shard) apart
#: from admission backpressure, so change it in lockstep.
CLOSED_REASON = "service closed before the request was admitted"


@dataclass(frozen=True)
class ServiceResponse:
    """The explicit outcome of one submission (never a silent drop)."""

    tenant: str
    sequence: int
    outcome: Outcome
    pattern: str
    payload_bytes: int
    reason: str = ""
    arrival_s: float = 0.0
    start_s: float | None = None
    finish_s: float | None = None
    service_s: float | None = None
    cycle: int | None = None
    slot: str | None = None
    #: True when the service time came from the cached-schedule replay
    #: path; False when the closed-form timing model priced it.
    replayed: bool | None = None

    @property
    def admitted(self) -> bool:
        return self.outcome is Outcome.ADMITTED

    @property
    def latency_s(self) -> float | None:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "sequence": self.sequence,
            "outcome": self.outcome.value,
            "pattern": self.pattern,
            "payload_bytes": self.payload_bytes,
            "reason": self.reason,
            "arrival_s": self.arrival_s,
            "start_s": self.start_s,
            "finish_s": self.finish_s,
            "service_s": self.service_s,
            "latency_s": self.latency_s,
            "cycle": self.cycle,
            "slot": self.slot,
            "replayed": self.replayed,
        }


@dataclass(frozen=True)
class OccurrenceRecord:
    """One slot occurrence, for invariant checks and the occurrence log."""

    position: int
    cycle: int
    slot: str
    start_s: float
    window_s: float
    consumed_s: float
    entries: tuple[tuple[str, int, Hashable], ...]
    structures: tuple[Hashable, ...]

    @property
    def overrun(self) -> bool:
        return self.consumed_s > self.window_s


@dataclass
class TenantStats:
    """Mutable per-tenant accounting (sketch always on, metrics gated)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    sketch: LogBucketSketch = field(default_factory=LogBucketSketch)

    def to_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "p50_s": self.sketch.quantile(50.0),
            "p99_s": self.sketch.quantile(99.0),
        }


class CollectiveService:
    """Admission-controlled asyncio front-end over one PIMnet machine.

    Use as an async context manager::

        async with CollectiveService(machine, config) as service:
            response = await service.submit("tenant-a", request)
    """

    def __init__(
        self,
        machine: MachineConfig | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        self.machine = machine or pimnet_sim_system()
        self.config = config or default_service_config()
        self.cycle = SlotCycle(self.config)
        self.backend = PimnetBackend(self.machine)
        self.num_dpus = self.backend.shape.num_dpus
        self._queue = AdmissionQueue(self.config)
        self._work = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._now_s = 0.0
        self._position = 0
        self._sequence = 0
        self._peak_depth = 0
        self._tenants: dict[str, TenantStats] = {}
        self._totals = {"submitted": 0, "admitted": 0, "rejected": 0}
        self._replayed = 0
        self._fallbacks = 0
        #: (pattern, num_elements, root, itemsize) -> (seconds, replayed)
        self._time_memo: dict[tuple, tuple[float, bool]] = {}
        #: Structures already compiled via cached_build_schedule.
        self._compiled: set[Hashable] = set()
        self.occurrences: list[OccurrenceRecord] = []

    # -- lifecycle ----------------------------------------------------

    async def __aenter__(self) -> "CollectiveService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def start(self) -> None:
        if self._task is not None:
            raise ServiceError("service already started")
        if self._closed:
            raise ServiceError("service was closed; build a new one")
        if metrics_active():
            # Materialize the counter family at zero so a run with no
            # rejections reads as rejection rate 0, not a missing metric.
            for name in ("service.submitted", "service.admitted",
                         "service.rejected", "service.occurrences"):
                metric_counter(name)
        loop = asyncio.get_running_loop()
        self._task = loop.create_task(self._run(), name="collective-service")

    @property
    def running(self) -> bool:
        return self._task is not None and not self._closed

    async def close(self) -> None:
        """Stop the scheduler; reject anything still queued, loudly."""
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for entry in self._queue.drain_all():
            response = self._reject_response(
                entry.tenant, entry.sequence, entry.request,
                CLOSED_REASON,
                arrival_s=entry.arrival_s,
            )
            if entry.handle is not None and not entry.handle.done():
                entry.handle.set_result(response)

    async def drain(self) -> None:
        """Wait (in simulated occurrences) until the queue is empty."""
        while self._queue.depth:
            await asyncio.sleep(0)

    # -- submission ---------------------------------------------------

    async def submit(
        self, tenant: str, request: CollectiveRequest
    ) -> ServiceResponse:
        """Submit one request; resolves when served or rejected."""
        if not self.running:
            raise ServiceError(
                "service is not running; enter it with 'async with' first"
            )
        if not tenant or not isinstance(tenant, str):
            raise ServiceError("tenant name must be a non-empty string")
        sequence = self._sequence
        self._sequence += 1
        stats = self._tenant(tenant)
        stats.submitted += 1
        self._totals["submitted"] += 1
        if metrics_active():
            metric_counter("service.submitted").inc()
        try:
            request.validate_for(self.num_dpus)
        except CollectiveError as exc:
            return self._reject_response(tenant, sequence, request, str(exc))
        if not self.cycle.accepts(request.pattern):
            return self._reject_response(
                tenant, sequence, request,
                f"no slot in the cycle accepts pattern "
                f"{request.pattern.value!r}",
            )
        entry = QueueEntry(
            sequence=sequence,
            tenant=tenant,
            request=request,
            arrival_s=self._now_s,
            handle=asyncio.get_running_loop().create_future(),
        )
        reason = self._queue.try_enqueue(entry)
        if reason is not None:
            return self._reject_response(tenant, sequence, request, reason)
        self._peak_depth = max(self._peak_depth, self._queue.depth)
        self._work.set()
        return await entry.handle

    # -- scheduler ----------------------------------------------------

    async def _run(self) -> None:
        while True:
            if self._queue.depth == 0:
                self._work.clear()
                await self._work.wait()
            slot = self.cycle.slot_at(self._position)
            self._occurrence(slot)
            # Yield once so resolved futures wake their submitters (a
            # closed-loop driver re-enqueues before the next occurrence).
            await asyncio.sleep(0)

    def _occurrence(self, slot: TimeSlot) -> None:
        start_s = self._now_s
        selection = self._queue.select(
            slot, self.structure_key, lambda r: self._service_time(r)[0]
        )
        cycle_index = self.cycle.cycle_of(self._position)
        entries_log = []
        elapsed = 0.0
        for entry in selection.entries:
            structure = self.structure_key(entry.request)
            self._compile(structure, entry.request)
            service_s, replayed = self._service_time(entry.request)
            elapsed += service_s
            finish_s = start_s + elapsed
            response = ServiceResponse(
                tenant=entry.tenant,
                sequence=entry.sequence,
                outcome=Outcome.ADMITTED,
                pattern=entry.request.pattern.value,
                payload_bytes=entry.request.payload_bytes,
                arrival_s=entry.arrival_s,
                start_s=finish_s - service_s,
                finish_s=finish_s,
                service_s=service_s,
                cycle=cycle_index,
                slot=slot.name,
                replayed=replayed,
            )
            self._record_admitted(response)
            entries_log.append((entry.tenant, entry.sequence, structure))
            if not entry.handle.done():
                entry.handle.set_result(response)
        self.occurrences.append(
            OccurrenceRecord(
                position=self._position,
                cycle=cycle_index,
                slot=slot.name,
                start_s=start_s,
                window_s=slot.time_window_s,
                consumed_s=selection.consumed_s,
                entries=tuple(entries_log),
                structures=selection.structures,
            )
        )
        if metrics_active():
            metric_counter("service.occurrences").inc()
        # The occurrence holds the fabric for its window (or its overrun,
        # for a single oversized admission), then pays the switch time.
        self._now_s = start_s + max(
            slot.time_window_s, selection.consumed_s
        ) + self.cycle.switch_time_s
        self._position += 1

    # -- pricing ------------------------------------------------------

    def structure_key(self, request: CollectiveRequest) -> Hashable:
        """Payload-independent schedule structure (batching key)."""
        return (request.pattern, request.root, request.dtype.itemsize)

    def _schedulable(self, request: CollectiveRequest) -> bool:
        pattern = request.pattern
        if pattern in (Collective.REDUCE_SCATTER, Collective.ALL_TO_ALL,
                       Collective.ALL_REDUCE, Collective.ALL_GATHER):
            return request.num_elements % self.num_dpus == 0
        return True

    def _compile(self, structure: Hashable, request: CollectiveRequest) -> None:
        """Compile the structure's schedule once (cache-warmed batching)."""
        if structure in self._compiled or not self._schedulable(request):
            return
        from ..schedcache import cached_build_schedule

        cached_build_schedule(
            request.pattern, self.backend.shape, request.num_elements,
            request.root,
        )
        self._compiled.add(structure)

    def _service_time(self, request: CollectiveRequest) -> tuple[float, bool]:
        """(seconds, replayed) for one request, memoized per payload."""
        key = (
            request.pattern, request.num_elements, request.root,
            request.dtype.itemsize,
        )
        cached = self._time_memo.get(key)
        if cached is not None:
            return cached
        if self._schedulable(request):
            try:
                times = self.backend.schedule_times(request)
                value = (sum(times.values()), True)
            except ScheduleError:
                value = (self.backend.timing(request).total_s, False)
        else:
            value = (self.backend.timing(request).total_s, False)
        self._time_memo[key] = value
        return value

    # -- accounting ---------------------------------------------------

    def _tenant(self, tenant: str) -> TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            stats = TenantStats()
            self._tenants[tenant] = stats
        return stats

    def _reject_response(
        self,
        tenant: str,
        sequence: int,
        request: CollectiveRequest,
        reason: str,
        arrival_s: float | None = None,
    ) -> ServiceResponse:
        stats = self._tenant(tenant)
        stats.rejected += 1
        self._totals["rejected"] += 1
        if metrics_active():
            metric_counter("service.rejected").inc()
        return ServiceResponse(
            tenant=tenant,
            sequence=sequence,
            outcome=Outcome.REJECTED,
            pattern=request.pattern.value,
            payload_bytes=request.payload_bytes,
            reason=reason,
            arrival_s=self._now_s if arrival_s is None else arrival_s,
        )

    def _record_admitted(self, response: ServiceResponse) -> None:
        stats = self._tenant(response.tenant)
        stats.admitted += 1
        self._totals["admitted"] += 1
        latency = response.latency_s
        assert latency is not None
        stats.sketch.observe(latency)
        if response.replayed:
            self._replayed += 1
        else:
            self._fallbacks += 1
        if metrics_active():
            metric_counter("service.admitted").inc()
            metric_histogram(
                "tenant.request_latency_s",
                {"substrate": SERVICE_SUBSTRATE, "tenant": response.tenant},
            ).observe(latency)

    def check_conservation(self) -> None:
        """submitted == admitted + rejected + still-queued, or raise."""
        total = self._totals
        accounted = total["admitted"] + total["rejected"] + self._queue.depth
        if total["submitted"] != accounted:
            raise ServiceError(
                f"lost requests: submitted={total['submitted']} but "
                f"admitted={total['admitted']} + "
                f"rejected={total['rejected']} + "
                f"queued={self._queue.depth} = {accounted}"
            )

    def tenant_stats(self) -> Mapping[str, TenantStats]:
        return dict(self._tenants)

    def stats(self) -> dict[str, Any]:
        self.check_conservation()
        if metrics_active():
            metric_gauge("service.queue_depth_peak").set(self._peak_depth)
        return {
            "submitted": self._totals["submitted"],
            "admitted": self._totals["admitted"],
            "rejected": self._totals["rejected"],
            "queued": self._queue.depth,
            "occurrences": len(self.occurrences),
            "peak_queue_depth": self._peak_depth,
            "replayed": self._replayed,
            "fallbacks": self._fallbacks,
            "now_s": self._now_s,
            "tenants": {
                tenant: stats.to_dict()
                for tenant, stats in sorted(self._tenants.items())
            },
        }

    def iter_occurrences(self) -> Iterator[OccurrenceRecord]:
        return iter(self.occurrences)
