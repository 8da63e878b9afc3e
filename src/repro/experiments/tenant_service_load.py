"""Closed-loop multi-tenant load on the async collective service.

Thousands of synthetic concurrent requests — the fig17 workload pair
(CC's AllReduce, the embedding workload's Reduce-Scatter), PrIM-style
heterogeneous payload mixes — drive :class:`repro.service.
CollectiveService` closed-loop: each tenant keeps a fixed number of
submissions outstanding and issues the next the moment one resolves.
Per-tenant p50/p99 come out of the ``tenant.request_latency_s``
histogram family the service populates, and a set of SLO objectives is
evaluated against the same registry.

Everything is simulated-clock deterministic (seeded payload mixes, no
wall-clock, no real I/O), so the full report is a golden fixture like
every other experiment.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

import numpy as np

from ..collectives.patterns import Collective, CollectiveRequest, ReduceOp
from ..config.presets import MachineConfig
from ..config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
)
from ..errors import ConfigurationError, ServiceError
from ..observability import (
    MetricsRegistry,
    SloObjective,
    SloReport,
    active_metrics,
    evaluate_slos,
    instrument_key,
    use_metrics,
)
from ..runner.registry import register_monolithic
from ..service import SERVICE_SUBSTRATE, CollectiveService, ServiceResponse
from .common import ExperimentTable, default_machine

DEFAULTS = {
    "tenants": 4,
    "requests_per_tenant": 512,
    "concurrency": 8,
    "seed": 11,
}

#: Payload multipliers (x the machine's alignment quantum), PrIM-style
#: heterogeneous mixes around each workload's base size.
_CC_MULTIPLIERS = (6, 12, 24, 48)
_EMB_MULTIPLIERS = (4, 8, 16, 32)

#: Per-tenant p99 latency bound (simulated seconds) for the SLO gate.
P99_SLO_S = 50e-3

#: Leading submissions each tenant fires all at once (no pacing) before
#: settling into the closed loop — deliberately past its ``max_queued``
#: quota, so the run demonstrates explicit rejections under overload.
BURST = 16


@dataclass(frozen=True)
class TenantSpec:
    """One synthetic tenant: a name and its seeded request stream."""

    name: str
    pattern: Collective
    requests: tuple[CollectiveRequest, ...]


@dataclass(frozen=True)
class TenantServiceLoadResult:
    """Service counters, per-tenant percentiles, and the SLO verdict."""

    params: dict
    stats: dict
    #: (tenant, pattern, submitted, admitted, rejected, p50_s, p99_s)
    tenant_rows: tuple[tuple, ...]
    slo: SloReport


def _tenant_specs(
    num_dpus: int, tenants: int, requests_per_tenant: int, seed: int
) -> tuple[TenantSpec, ...]:
    specs = []
    for index in range(tenants):
        if index % 2 == 0:
            name = f"cc-{index}"
            pattern = Collective.ALL_REDUCE
            dtype = np.dtype(np.int64)
            op = ReduceOp.MIN
            multipliers = _CC_MULTIPLIERS
        else:
            name = f"emb-{index}"
            pattern = Collective.REDUCE_SCATTER
            dtype = np.dtype(np.int32)
            op = ReduceOp.SUM
            multipliers = _EMB_MULTIPLIERS
        # Payloads aligned to num_dpus * itemsize so every request is
        # schedulable and prices through the cached-profile replay path.
        quantum = num_dpus * dtype.itemsize
        rng = random.Random(seed * 7919 + index)
        requests = tuple(
            CollectiveRequest(
                pattern=pattern,
                payload_bytes=quantum * rng.choice(multipliers),
                dtype=dtype,
                op=op,
            )
            for _ in range(requests_per_tenant)
        )
        specs.append(TenantSpec(name=name, pattern=pattern, requests=requests))
    return tuple(specs)


def check_load(
    tenants: int,
    requests_per_tenant: int,
    concurrency: int,
    timeout_s: float | None,
) -> None:
    """Reject a closed-loop load that cannot run: with no tenants or no
    requests there is nothing to drive, with no concurrency every driver
    waits forever, and a timeout that is not positive expires at once."""
    for what, value in (
        ("tenants", tenants),
        ("requests per tenant", requests_per_tenant),
        ("concurrency", concurrency),
    ):
        if value < 1:
            raise ConfigurationError(f"{what} must be >= 1, got {value}")
    if timeout_s is not None and not timeout_s > 0:
        raise ConfigurationError(f"timeout must be > 0 s, got {timeout_s:g}")


def _service_config() -> ServiceConfig:
    """Two-slot cycle (one per workload pattern).  The 500us window
    fits a handful of requests per occurrence at the payload sizes of
    :func:`_tenant_specs` (9-436us each), so the closed-loop drivers
    keep the queue busy without starving anyone."""
    return ServiceConfig(
        slots=(
            TimeSlotConfig(
                "all_reduce", ("all_reduce",),
                time_window_s=500e-6, max_multiplexing=2,
            ),
            TimeSlotConfig(
                "reduce_scatter", ("reduce_scatter",),
                time_window_s=500e-6, max_multiplexing=2,
            ),
        ),
        switch_time_s=20e-6,
        queue_limit=64,
        default_quota=TenantQuotaConfig(max_queued=8, max_per_slot=4),
    )


async def _drive(
    machine: MachineConfig,
    config: ServiceConfig,
    specs: tuple[TenantSpec, ...],
    concurrency: int,
) -> tuple[dict, dict[str, list[ServiceResponse]]]:
    async with CollectiveService(machine, config) as service:
        responses: dict[str, list[ServiceResponse]] = {
            spec.name: [] for spec in specs
        }

        async def tenant_driver(spec: TenantSpec) -> None:
            async def one(request: CollectiveRequest) -> None:
                responses[spec.name].append(
                    await service.submit(spec.name, request)
                )

            # Opening burst: everything at once, past the tenant quota,
            # so overload produces explicit rejections (never drops).
            burst, steady = spec.requests[:BURST], spec.requests[BURST:]
            await asyncio.gather(*(one(r) for r in burst))

            # Steady state: a closed loop with `concurrency` requests
            # outstanding — backpressure through pacing, not rejection.
            limiter = asyncio.Semaphore(concurrency)

            async def paced(request: CollectiveRequest) -> None:
                async with limiter:
                    await one(request)

            await asyncio.gather(*(paced(r) for r in steady))

        await asyncio.gather(*(tenant_driver(spec) for spec in specs))
        await service.drain()
        return service.stats(), responses


def _objectives(specs: tuple[TenantSpec, ...]) -> list[SloObjective]:
    objectives = [
        SloObjective(
            "tenant.request_latency_s", "p99", "<", P99_SLO_S,
            labels={"substrate": SERVICE_SUBSTRATE, "tenant": spec.name},
        )
        for spec in specs
    ]
    # Tail-of-the-tail on the first tenant exercises the p999 path, and
    # the rejection-rate objective bounds how much backpressure the
    # closed-loop drivers are allowed to absorb.
    objectives.append(
        SloObjective(
            "tenant.request_latency_s", "p999", "<", 2 * P99_SLO_S,
            labels={"substrate": SERVICE_SUBSTRATE, "tenant": specs[0].name},
        )
    )
    objectives.append(
        SloObjective(
            "service.rejected", "value", "<=", 0.5,
            per="service.submitted",
            name="rejection rate <= 50%",
        )
    )
    return objectives


def run(
    machine: MachineConfig | None = None,
    tenants: int = DEFAULTS["tenants"],
    requests_per_tenant: int = DEFAULTS["requests_per_tenant"],
    concurrency: int = DEFAULTS["concurrency"],
    seed: int = DEFAULTS["seed"],
    config: ServiceConfig | None = None,
    timeout_s: float | None = None,
) -> TenantServiceLoadResult:
    """Drive the service closed-loop and gate the result on SLOs."""
    check_load(tenants, requests_per_tenant, concurrency, timeout_s)
    machine = machine or default_machine()
    config = config or _service_config()
    num_dpus = (
        machine.system.banks_per_chip
        * machine.system.chips_per_rank
        * machine.system.ranks_per_channel
    )
    specs = _tenant_specs(num_dpus, tenants, requests_per_tenant, seed)

    outer = active_metrics()
    registry = MetricsRegistry()
    with use_metrics(registry):
        coroutine = _drive(machine, config, specs, concurrency)
        if timeout_s is not None:
            async def _bounded():
                return await asyncio.wait_for(coroutine, timeout_s)
            try:
                stats, responses = asyncio.run(_bounded())
            except asyncio.TimeoutError:
                raise ServiceError(
                    f"tenant_service_load did not finish within "
                    f"{timeout_s:g}s of wall clock — the event loop is "
                    "likely deadlocked"
                ) from None
        else:
            stats, responses = asyncio.run(coroutine)
        slo = evaluate_slos(registry, _objectives(specs))
    if outer is not None:
        outer.merge(registry)

    total = stats["submitted"]
    accounted = stats["admitted"] + stats["rejected"]
    if total != accounted or stats["queued"] != 0:
        raise ServiceError(
            f"lost requests: submitted={total}, admitted+rejected="
            f"{accounted}, queued={stats['queued']}"
        )
    expected = sum(len(spec.requests) for spec in specs)
    if total != expected:
        raise ServiceError(
            f"driver submitted {total} requests, expected {expected}"
        )

    tenant_rows = []
    for spec in specs:
        key = instrument_key(
            "tenant.request_latency_s",
            {"substrate": SERVICE_SUBSTRATE, "tenant": spec.name},
        )
        tenant_stats = stats["tenants"][spec.name]
        instrument = registry.histograms.get(key)
        sketch = instrument.sketch if instrument is not None else None
        tenant_rows.append(
            (
                spec.name,
                spec.pattern.value,
                tenant_stats["submitted"],
                tenant_stats["admitted"],
                tenant_stats["rejected"],
                sketch.quantile(50.0) if sketch is not None else None,
                sketch.quantile(99.0) if sketch is not None else None,
            )
        )
    return TenantServiceLoadResult(
        params={
            "tenants": tenants,
            "requests_per_tenant": requests_per_tenant,
            "concurrency": concurrency,
            "seed": seed,
        },
        stats=stats,
        tenant_rows=tuple(tenant_rows),
        slo=slo,
    )


def build_tables(result: TenantServiceLoadResult) -> tuple[ExperimentTable, ...]:
    stats = result.stats
    rows = tuple(
        (
            tenant,
            pattern,
            str(submitted),
            str(admitted),
            str(rejected),
            "n/a" if p50 is None else f"{p50 * 1e6:.1f}",
            "n/a" if p99 is None else f"{p99 * 1e6:.1f}",
        )
        for tenant, pattern, submitted, admitted, rejected, p50, p99
        in result.tenant_rows
    )
    replay_total = stats["replayed"] + stats["fallbacks"]
    replay_pct = (
        100.0 * stats["replayed"] / replay_total if replay_total else 0.0
    )
    load_table = ExperimentTable(
        "Tenant service load",
        "Closed-loop admission through the time-slot cycle",
        ("tenant", "pattern", "submitted", "admitted", "rejected",
         "p50 (us)", "p99 (us)"),
        rows,
        notes=(
            f"{stats['submitted']} requests total: "
            f"{stats['admitted']} admitted + {stats['rejected']} rejected "
            f"(zero lost); {stats['occurrences']} slot occurrences, "
            f"peak queue depth {stats['peak_queue_depth']}, "
            f"{replay_pct:.1f}% priced by cached-schedule replay"
        ),
    )
    slo_rows = tuple(
        (
            check.objective.describe(),
            "n/a" if check.observed is None else f"{check.observed:g}",
            "ok" if check.passed else "FAIL",
        )
        for check in result.slo.checks
    )
    slo_table = ExperimentTable(
        "Service SLOs",
        "Objectives evaluated against tenant.request_latency_s",
        ("objective", "observed", "verdict"),
        slo_rows,
        notes=(
            "all objectives met" if result.slo.ok
            else f"{len(result.slo.violations)} objective(s) violated"
        ),
    )
    return (load_table, slo_table)


SPEC = register_monolithic(
    "tenant_service_load",
    "Tenant service load: time-sliced multi-tenant admission",
    run,
    build_tables,
)
