"""Rendezvous-hash request router over N independent service shards.

Assignment: each tenant (optionally refined by a request ``key``) gets
a deterministic **rendezvous ranking** of the shards — every shard is
scored by ``sha256(tenant, key, shard)`` and ranked by descending
score.  The top shard is the tenant's *home*; the rest of the ranking
doubles as the retry order, so failover targets are exactly as stable
as the primary assignment.  SHA-256 (not Python's salted ``hash``)
keeps the partition identical across processes and interpreter runs.

Routing: the router tries the best *serving* shard first (healthy
before degraded, ranking order within each class) and on a rejection or
an outage moves to the next, up to ``max_reroutes`` extra attempts.
Every submission resolves to an explicit :class:`FleetOutcome` —
``admitted`` (first try), ``rerouted`` (admitted after >= 1 retry),
``rejected`` (backpressure on every tried shard), or ``failed`` (no
serving shard reachable) — and :meth:`FleetRouter.check_conservation`
raises if any request is ever unaccounted for.

Outages are deterministic: :class:`~repro.config.fleet.
ShardOutageConfig` plans trigger on the fleet-wide submission counter,
sample a fault set through :func:`repro.faults.model.sample_fault_set`,
and a fatal set closes the shard's service mid-run — requests already
queued there resolve with the service's closed-rejection reason and the
router reroutes them, which is the graceful-degradation path the
``fleet_resilience`` experiment pins.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from ..collectives.patterns import CollectiveRequest
from ..config.fleet import FleetConfig, ShardOutageConfig
from ..config.presets import MachineConfig
from ..config.service import ServiceConfig
from ..errors import CollectiveError, FleetError, ServiceError
from ..faults.model import FaultSet, sample_fault_set
from ..observability import Counter, Histogram, MetricsRegistry
from ..service import CLOSED_REASON, CollectiveService, ServiceResponse
from ..service.slots import SlotCycle
from .health import HealthTracker, ShardHealth
from .metrics import FLEET_COUNTERS, LATENCY_METRIC, fold_registries, shard_label

__all__ = [
    "FleetOutcome",
    "FleetResponse",
    "FleetRouter",
    "ShardHandle",
    "fleet_assignment",
    "home_shard",
    "shard_ranking",
]


# --------------------------------------------------------------------------
# Rendezvous (highest-random-weight) hashing.
# --------------------------------------------------------------------------

def _score(tenant: str, key: str, shard: int) -> int:
    """The HRW weight of ``shard`` for ``(tenant, key)`` — process-stable."""
    token = f"{tenant}\x1f{key}\x1fshard:{shard}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


#: Memoized rankings, (tenant, shards, key) -> ranking.  Bounded: when
#: full, the oldest entry is evicted.
_RANKINGS: dict[tuple[str, int, str], tuple[int, ...]] = {}
_RANKINGS_MAX = 4096


def shard_ranking(tenant: str, shards: int, key: str = "") -> tuple[int, ...]:
    """All shards ranked by descending rendezvous score.

    Removing a shard never reorders the survivors — the defining HRW
    property — so failover lands each tenant on the same backup shard
    on every run and in every process.  A ranking is a pure function of
    its arguments, so it is computed once and then served from a
    bounded memo (after validation, so bad input always raises).
    """
    if not isinstance(shards, int) or shards < 1:
        raise FleetError(f"shard count must be an int >= 1, got {shards!r}")
    if not tenant or not isinstance(tenant, str):
        raise FleetError("tenant name must be a non-empty string")
    memo_key = (tenant, shards, key)
    ranking = _RANKINGS.get(memo_key)
    if ranking is None:
        ranking = tuple(
            sorted(range(shards), key=lambda s: (-_score(tenant, key, s), s))
        )
        if len(_RANKINGS) >= _RANKINGS_MAX:
            del _RANKINGS[next(iter(_RANKINGS))]
        _RANKINGS[memo_key] = ranking
    return ranking


def home_shard(tenant: str, shards: int, key: str = "") -> int:
    """The stable primary assignment for ``(tenant, key)``."""
    return shard_ranking(tenant, shards, key)[0]


def fleet_assignment(
    tenants: Iterable[str], shards: int
) -> dict[str, int]:
    """tenant name -> home shard, for status displays and SLO wiring."""
    return {tenant: home_shard(tenant, shards) for tenant in tenants}


# --------------------------------------------------------------------------
# Fleet responses.
# --------------------------------------------------------------------------

class FleetOutcome(Enum):
    """The explicit resolution of one fleet submission.

    ``rerouted`` covers every admission that displaced the request from
    its stable assignment: served after a failed attempt elsewhere *or*
    served off the home shard because it was down or degraded.  The
    reroute rate therefore measures displaced traffic, which is the
    quantity the outage SLO bounds.
    """

    ADMITTED = "admitted"
    REROUTED = "rerouted"
    REJECTED = "rejected"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class FleetResponse:
    """One submission's fate: which shards were tried, and the verdict."""

    tenant: str
    sequence: int
    outcome: FleetOutcome
    #: The tenant's stable home shard (top of its rendezvous ranking).
    home: int
    #: Shard that served the request (admitted/rerouted) or answered
    #: last (rejected); None when no shard could be reached at all.
    shard: int | None
    #: Shards actually attempted, in routing order.
    attempts: tuple[int, ...]
    reason: str = ""
    #: The serving shard's response for admitted/rerouted outcomes.
    response: ServiceResponse | None = None
    #: The serving shard's service generation (0 = never revived);
    #: None when nothing was served.  Simulated clocks restart on a
    #: revive, so timestamps only compare within one generation.
    generation: int | None = None

    @property
    def admitted(self) -> bool:
        return self.outcome in (FleetOutcome.ADMITTED, FleetOutcome.REROUTED)

    @property
    def latency_s(self) -> float | None:
        return self.response.latency_s if self.response is not None else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "tenant": self.tenant,
            "sequence": self.sequence,
            "outcome": self.outcome.value,
            "home": self.home,
            "shard": self.shard,
            "attempts": list(self.attempts),
            "reason": self.reason,
            "latency_s": self.latency_s,
            "generation": self.generation,
        }


# --------------------------------------------------------------------------
# Shard handles.
# --------------------------------------------------------------------------

class ShardHandle:
    """One shard: its service, its private registry, its fault state.

    The registry outlives service restarts, so per-shard counters and
    latency sketches are cumulative across a kill/revive cycle.  Each
    instrument is looked up in the registry on its first use and the
    handle kept, so later requests skip the label normalization; the
    registry still gains its instruments in first-use order.
    """

    def __init__(
        self, index: int, machine: MachineConfig, config: ServiceConfig
    ) -> None:
        self.index = index
        self.name = shard_label(index)
        self.machine = machine
        self.config = config
        self.registry = MetricsRegistry()
        self.service = CollectiveService(machine, config)
        self.fault_set: FaultSet | None = None
        #: Bumped on every revive; generation 0 is the original service.
        self.generation = 0
        #: ``fleet.shard.*`` counter name -> bound counter.
        self._counters: dict[str, Counter] = {}
        #: tenant -> bound ``fleet.request_latency_s`` histogram.
        self._latency: dict[str, Histogram] = {}

    def start(self) -> None:
        self.service.start()

    async def close(self) -> None:
        await self.service.close()

    async def restart(self) -> None:
        """Replace a closed service with a fresh one on the same machine."""
        await self.service.close()
        self.service = CollectiveService(self.machine, self.config)
        self.generation += 1
        self.service.start()

    # -- shard-local accounting (attempt-level, not submission-level) --

    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(
                name, {"shard": self.name}
            )
        counter.inc()

    def note_submitted(self) -> None:
        self._count("fleet.shard.submitted")

    def note_admitted(self, tenant: str, latency_s: float) -> None:
        self._count("fleet.shard.admitted")
        histogram = self._latency.get(tenant)
        if histogram is None:
            histogram = self._latency[tenant] = self.registry.histogram(
                LATENCY_METRIC, {"tenant": tenant, "shard": self.name}
            )
        histogram.observe(latency_s)

    def note_rejected(self) -> None:
        self._count("fleet.shard.rejected")

    def stats(self) -> dict[str, Any]:
        def _value(name: str) -> int:
            return int(
                self.registry.counter(name, {"shard": self.name}).value
            )

        return {
            "generation": self.generation,
            "submitted": _value("fleet.shard.submitted"),
            "admitted": _value("fleet.shard.admitted"),
            "rejected": _value("fleet.shard.rejected"),
            "fault_events": (
                len(self.fault_set.events) if self.fault_set else 0
            ),
        }


# --------------------------------------------------------------------------
# The router.
# --------------------------------------------------------------------------

class FleetRouter:
    """Admission front-end over N shards with fault-aware retry routing.

    Use as an async context manager::

        async with FleetRouter(config, machine) as fleet:
            response = await fleet.submit("tenant-a", request)
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        machine: MachineConfig | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        if machine is None:
            from ..config.presets import pimnet_sim_system

            machine = pimnet_sim_system()
        self.machine = machine
        self.shards = tuple(
            ShardHandle(index, machine, self.config.service)
            for index in range(self.config.shards)
        )
        self.health = HealthTracker(self.config.shards)
        #: Fleet-level counters (per-shard families live on the handles).
        self.registry = MetricsRegistry()
        self.cycle = SlotCycle(self.config.service)
        self.num_dpus = self.shards[0].service.num_dpus
        self._running = False
        self._sequence = 0
        self._counts = {outcome.value: 0 for outcome in FleetOutcome}
        #: Fleet counter name -> bound counter, filled by :meth:`start`.
        self._counters: dict[str, Counter] = {}
        #: Outage plan progress: shard -> "pending" | "active" | "done".
        self._outage_phase = {o.shard: "pending" for o in self.config.outages}
        #: Lowest submission count at which an outage plan can change
        #: phase; below it ``_apply_outages`` has nothing to do.
        self._next_outage_at = self._outage_due()
        #: ranking -> serving shards in try order, valid while
        #: ``self.health.version`` equals ``_orders_version``.
        self._orders: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._orders_version = self.health.version

    # -- lifecycle ----------------------------------------------------

    async def __aenter__(self) -> "FleetRouter":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def start(self) -> None:
        if self._running:
            raise FleetError("fleet already started")
        # Materialize at zero so a clean run reads rate 0, not a missing
        # metric (mirrors the service counters), and keep the handles.
        self._counters = {
            name: self.registry.counter(name) for name in FLEET_COUNTERS
        }
        for shard in self.shards:
            shard.start()
        self._running = True

    async def close(self) -> None:
        for shard in self.shards:
            await shard.close()
        self._running = False

    async def drain(self) -> None:
        """Wait until every serving shard's admission queue is empty."""
        for shard in self.shards:
            if shard.service.running:
                await shard.service.drain()

    # -- outage plans and manual fault injection ----------------------

    def _outage_due(self) -> float:
        """The lowest submission count at which a plan changes phase."""
        due = math.inf
        for outage in self.config.outages:
            phase = self._outage_phase[outage.shard]
            if phase == "pending":
                due = min(due, outage.after_submissions)
            elif phase == "active" and outage.revive_at is not None:
                due = min(due, outage.revive_at)
        return due

    async def _apply_outages(self) -> None:
        for outage in self.config.outages:
            phase = self._outage_phase[outage.shard]
            if (
                phase == "pending"
                and self._sequence >= outage.after_submissions
            ):
                await self.inject_outage(outage)
                self._outage_phase[outage.shard] = "active"
            elif (
                phase == "active"
                and outage.revive_at is not None
                and self._sequence >= outage.revive_at
            ):
                await self.revive_shard(outage.shard)
                self._outage_phase[outage.shard] = "done"
        self._next_outage_at = self._outage_due()

    async def inject_outage(self, outage: ShardOutageConfig) -> ShardHealth:
        """Sample the outage's fault set against the shard and apply it.

        A fatal set closes the shard's service immediately: requests
        already queued there resolve as rejected with the service's
        closed reason, which the router treats as retryable.
        """
        shard = self.shards[outage.shard]
        fault_set = sample_fault_set(
            outage.model, self.machine.system, outage.seed, outage.targets
        )
        shard.fault_set = fault_set
        state = self.health.apply_fault_set(
            outage.shard, fault_set, self._sequence
        )
        if state is ShardHealth.DOWN and shard.service.running:
            await shard.service.close()
        return state

    async def revive_shard(self, index: int) -> None:
        """Clear a shard's faults and, if it was killed, restart it."""
        if not 0 <= index < len(self.shards):
            raise FleetError(
                f"shard {index} out of range (fleet has "
                f"{len(self.shards)} shard(s))"
            )
        shard = self.shards[index]
        shard.fault_set = None
        if not shard.service.running:
            await shard.restart()
        self.health.revive(index, self._sequence)

    # -- routing ------------------------------------------------------

    def _serving_order(self, ranking: tuple[int, ...]) -> tuple[int, ...]:
        """The serving shards of ``ranking`` in try order.

        Memoized per ranking; any health change bumps
        ``self.health.version`` and so empties the memo.
        """
        if self._orders_version != self.health.version:
            self._orders.clear()
            self._orders_version = self.health.version
        order = self._orders.get(ranking)
        if order is None:
            states = self.health.current
            serving = [i for i in ranking if states[i].serving]
            # Stable sort: healthy shards keep ranking order ahead of
            # degraded ones, which keep ranking order among themselves.
            order = self._orders[ranking] = tuple(
                sorted(
                    serving,
                    key=lambda i: states[i] is ShardHealth.DEGRADED,
                )
            )
        return order

    def route_order(self, tenant: str, key: str = "") -> tuple[int, ...]:
        """Serving shards in try order: healthy first, ranking within."""
        return self._serving_order(
            shard_ranking(tenant, len(self.shards), key)
        )

    async def submit(
        self, tenant: str, request: CollectiveRequest, key: str = ""
    ) -> FleetResponse:
        """Route one request; resolves to an explicit fleet outcome."""
        if not self._running:
            raise FleetError(
                "fleet is not running; enter it with 'async with' first"
            )
        if not tenant or not isinstance(tenant, str):
            raise FleetError("tenant name must be a non-empty string")
        sequence = self._sequence
        self._sequence += 1
        self._counters["fleet.submitted"].inc()
        if self._sequence >= self._next_outage_at:
            await self._apply_outages()
        ranking = shard_ranking(tenant, len(self.shards), key)
        home = ranking[0]

        # Validation failures are deterministic across identical shards,
        # so they reject at the fleet edge without burning retries.
        try:
            request.validate_for(self.num_dpus)
        except CollectiveError as exc:
            return self._resolve(
                FleetOutcome.REJECTED, tenant, sequence, home, (), None,
                str(exc),
            )
        if not self.cycle.accepts(request.pattern):
            return self._resolve(
                FleetOutcome.REJECTED, tenant, sequence, home, (), None,
                f"no slot in the cycle accepts pattern "
                f"{request.pattern.value!r}",
            )

        candidates = self._serving_order(ranking)[
            : 1 + self.config.max_reroutes
        ]
        states = self.health.current
        attempts: list[int] = []
        last: ServiceResponse | None = None
        last_shard: int | None = None
        for index in candidates:
            # Re-check: the shard may have gone down while an earlier
            # attempt of this very request was waiting in its queue.
            if not states[index].serving:
                continue
            shard = self.shards[index]
            attempts.append(index)
            shard.note_submitted()
            try:
                response = await shard.service.submit(tenant, request)
            except ServiceError:
                # Closed between the health check and the enqueue —
                # indistinguishable from an outage; try the next shard.
                shard.note_rejected()
                continue
            last, last_shard = response, index
            if response.admitted:
                latency = response.latency_s
                assert latency is not None
                shard.note_admitted(tenant, latency)
                displaced = index != home or len(attempts) > 1
                outcome = (
                    FleetOutcome.REROUTED
                    if displaced
                    else FleetOutcome.ADMITTED
                )
                return self._resolve(
                    outcome, tenant, sequence, home, tuple(attempts),
                    index, response=response,
                    generation=shard.generation,
                )
            shard.note_rejected()
            # Rejected: closed-service rejections are outages, anything
            # else is backpressure — both retry on the next candidate.

        if last is None:
            return self._resolve(
                FleetOutcome.FAILED, tenant, sequence, home,
                tuple(attempts), None, "no serving shard available",
            )
        if last.reason == CLOSED_REASON:
            return self._resolve(
                FleetOutcome.FAILED, tenant, sequence, home,
                tuple(attempts), last_shard,
                "shard went down while the request was queued and no "
                "serving shard remained",
            )
        return self._resolve(
            FleetOutcome.REJECTED, tenant, sequence, home,
            tuple(attempts), last_shard, last.reason,
        )

    def _resolve(
        self,
        outcome: FleetOutcome,
        tenant: str,
        sequence: int,
        home: int,
        attempts: tuple[int, ...],
        shard: int | None,
        reason: str = "",
        response: ServiceResponse | None = None,
        generation: int | None = None,
    ) -> FleetResponse:
        self._counts[outcome.value] += 1
        self._counters[f"fleet.{outcome.value}"].inc()
        extra = max(0, len(attempts) - 1)
        if extra:
            self._counters["fleet.reroutes"].inc(extra)
        return FleetResponse(
            tenant=tenant,
            sequence=sequence,
            outcome=outcome,
            home=home,
            shard=shard,
            attempts=attempts,
            reason=reason,
            response=response,
            generation=generation,
        )

    # -- accounting ---------------------------------------------------

    def merged_metrics(self) -> MetricsRegistry:
        """Fleet counters + every shard registry, folded into one view."""
        return fold_registries(
            [self.registry, *(shard.registry for shard in self.shards)]
        )

    def check_conservation(self) -> None:
        """Every submission resolved to exactly one outcome, or raise."""
        resolved = sum(self._counts.values())
        if self._sequence != resolved:
            parts = ", ".join(
                f"{name}={count}" for name, count in self._counts.items()
            )
            raise FleetError(
                f"lost requests: submitted={self._sequence} but "
                f"{parts} (= {resolved} resolved)"
            )
        for shard in self.shards:
            shard.service.check_conservation()

    def stats(self) -> dict[str, Any]:
        self.check_conservation()
        return {
            "submitted": self._sequence,
            **dict(self._counts),
            "reroutes": int(self.registry.counter("fleet.reroutes").value),
            "health": {
                shard.name: self.health.state(shard.index).value
                for shard in self.shards
            },
            "transitions": [
                t.to_dict() for t in self.health.transitions
            ],
            "shards": {
                shard.name: shard.stats() for shard in self.shards
            },
        }
