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
from typing import Any, Coroutine, Mapping, Sequence

import numpy as np

from ..collectives.patterns import Collective, CollectiveRequest, ReduceOp
from ..config.presets import MachineConfig
from ..config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    default_service_config,
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
from ..service import SERVICE_SUBSTRATE, CollectiveService
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


def tenant_names(tenants: int) -> tuple[str, ...]:
    """The synthetic tenant names (fig17 workload pair, alternating)."""
    return tuple(
        f"cc-{index}" if index % 2 == 0 else f"emb-{index}"
        for index in range(tenants)
    )


def tenant_specs(
    machine: MachineConfig, tenants: int, requests_per_tenant: int, seed: int
) -> tuple[TenantSpec, ...]:
    """Seeded request streams, the fig17 workload pair per tenant."""
    specs = []
    for index, name in enumerate(tenant_names(tenants)):
        if index % 2 == 0:
            pattern = Collective.ALL_REDUCE
            dtype = np.dtype(np.int64)
            op = ReduceOp.MIN
            multipliers = _CC_MULTIPLIERS
        else:
            pattern = Collective.REDUCE_SCATTER
            dtype = np.dtype(np.int32)
            op = ReduceOp.SUM
            multipliers = _EMB_MULTIPLIERS
        # Payloads aligned to num_dpus * itemsize so every request is
        # schedulable and prices through the cached-profile replay path.
        quantum = machine.system.banks_per_channel * dtype.itemsize
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


def service_config() -> ServiceConfig:
    """Two-slot cycle (one per workload pattern).  The 500us window
    fits a handful of requests per occurrence at the payload sizes of
    :func:`tenant_specs` (9-436us each), so the closed-loop drivers
    keep the queue busy without starving anyone."""
    return default_service_config(
        ("all_reduce", "reduce_scatter"),
        time_window_s=500e-6,
        switch_time_s=20e-6,
        max_multiplexing=2,
        queue_limit=64,
        default_quota=TenantQuotaConfig(max_queued=8, max_per_slot=4),
    )


async def closed_loop(
    target: Any,
    streams: Mapping[str, Sequence[CollectiveRequest]],
    concurrency: int,
    burst: int = 0,
) -> dict[str, list]:
    """Drive ``target`` -- a :class:`~repro.service.CollectiveService`
    or a :class:`~repro.fleet.FleetRouter` -- closed-loop and drain it.

    Each tenant fires its first ``burst`` requests at once, then keeps
    ``concurrency`` requests outstanding.  Returns each tenant's
    responses in completion order.
    """
    responses: dict[str, list] = {name: [] for name in streams}

    async def tenant_driver(
        name: str, requests: Sequence[CollectiveRequest]
    ) -> None:
        async def one(request: CollectiveRequest) -> None:
            responses[name].append(await target.submit(name, request))

        # Opening burst: everything at once, past the tenant quota,
        # so overload produces explicit rejections (never drops).
        if burst:
            await asyncio.gather(*(one(r) for r in requests[:burst]))

        # Steady state: a closed loop with `concurrency` requests
        # outstanding — backpressure through pacing, not rejection.
        limiter = asyncio.Semaphore(concurrency)

        async def paced(request: CollectiveRequest) -> None:
            async with limiter:
                await one(request)

        await asyncio.gather(*(paced(r) for r in requests[burst:]))

    await asyncio.gather(
        *(tenant_driver(name, requests) for name, requests in streams.items())
    )
    await target.drain()
    return responses


def run_bounded(
    coroutine: Coroutine[Any, Any, Any],
    timeout_s: float | None,
    error: type[Exception],
    what: str,
) -> Any:
    """``asyncio.run(coroutine)``; with ``timeout_s``, raise ``error``
    once that much wall clock passes."""
    if timeout_s is None:
        return asyncio.run(coroutine)

    async def bounded() -> Any:
        return await asyncio.wait_for(coroutine, timeout_s)

    try:
        return asyncio.run(bounded())
    except asyncio.TimeoutError:
        raise error(
            f"{what} did not finish within {timeout_s:g}s of wall clock — "
            "the event loop is likely deadlocked"
        ) from None


def check_served(stats: dict, expected: int, error: type[Exception]) -> None:
    """Raise ``error`` unless the service saw all ``expected``
    submissions and resolved each one admitted or rejected."""
    total = stats["submitted"]
    accounted = stats["admitted"] + stats["rejected"]
    if total != accounted or stats["queued"] != 0:
        raise error(
            f"lost requests: submitted={total}, admitted+rejected="
            f"{accounted}, queued={stats['queued']}"
        )
    if total != expected:
        raise error(f"driver submitted {total} requests, expected {expected}")


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
    config = config or service_config()
    specs = tenant_specs(machine, tenants, requests_per_tenant, seed)

    async def serve() -> dict:
        async with CollectiveService(machine, config) as service:
            await closed_loop(
                service, {s.name: s.requests for s in specs}, concurrency,
                burst=BURST,
            )
            return service.stats()

    outer = active_metrics()
    registry = MetricsRegistry()
    with use_metrics(registry):
        stats = run_bounded(
            serve(), timeout_s, ServiceError, "tenant_service_load"
        )
        slo = evaluate_slos(registry, _objectives(specs))
    if outer is not None:
        outer.merge(registry)

    check_served(
        stats, sum(len(spec.requests) for spec in specs), ServiceError
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
