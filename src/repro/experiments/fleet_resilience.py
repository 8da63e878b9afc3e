"""Fleet resilience: multi-tenant load while one shard dies mid-run.

Closed-loop tenants drive the sharded fleet (:mod:`repro.fleet`) while
a deterministic fault campaign kills the busiest shard one third of the
way through the run and revives it a third later.  The experiment pins
the graceful-degradation contract:

* every submission resolves to an explicit Admitted / Rerouted /
  Rejected / Failed outcome (the router's conservation check raises
  otherwise);
* tenants whose home shard never failed keep their p99 within the fleet
  SLO — the outage stays contained;
* the killed shard's tenants reroute along their rendezvous rankings
  instead of failing fleet-wide.

Each trial is one independent, fully deterministic fleet run (payload
mixes and the outage's fault set both derive from the trial seed via
:func:`repro.faults.campaign.trial_seed`), so the trials sweep through
the PR 2 process-pool runner and the whole report is a golden fixture —
byte-identical serial, parallel, and warm-cache.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any

import numpy as np

from ..collectives.patterns import Collective, CollectiveRequest, ReduceOp
from ..config.fleet import FleetConfig, kill_shard_outage
from ..config.presets import MachineConfig
from ..config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
)
from ..errors import FleetError
from ..faults.campaign import trial_seed
from ..fleet import (
    FleetResponse,
    FleetRouter,
    default_fleet_objectives,
    fleet_assignment,
    tenant_latency_sketch,
)
from ..observability import (
    MetricsRegistry,
    active_metrics,
    evaluate_slos,
    use_metrics,
)
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable
from .tenant_service_load import TenantSpec, check_load

DEFAULTS = {
    "shards": 3,
    "tenants": 5,
    "requests_per_tenant": 48,
    "concurrency": 4,
    "seed": 23,
    "trials": 3,
}

#: Per-tenant p99 latency bound (simulated seconds) on the home shard.
P99_SLO_S = 50e-3

_CC_MULTIPLIERS = (6, 12, 24, 48)
_EMB_MULTIPLIERS = (4, 8, 16, 32)


def tenant_names(tenants: int) -> tuple[str, ...]:
    """The synthetic tenant names (fig17 workload pair, alternating)."""
    return tuple(
        f"cc-{index}" if index % 2 == 0 else f"emb-{index}"
        for index in range(tenants)
    )


def _tenant_specs(
    num_dpus: int, tenants: int, requests_per_tenant: int, seed: int
) -> tuple[TenantSpec, ...]:
    """Seeded request streams, the fig17 workload pair per tenant."""
    specs = []
    names = tenant_names(tenants)
    for index in range(tenants):
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
        name = names[index]
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


def _service_config() -> ServiceConfig:
    """The tenant_service_load two-slot cycle, per shard."""
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


def busiest_shard(assignment: dict[str, int], shards: int) -> int:
    """The shard hosting the most tenants (ties -> lowest index).

    Killing this shard guarantees the outage actually displaces
    traffic, so the golden always exercises the reroute path.
    """
    loads = [0] * shards
    for home in assignment.values():
        loads[home] += 1
    return max(range(shards), key=lambda i: (loads[i], -i))


async def _drive(
    config: FleetConfig,
    machine: MachineConfig,
    specs: tuple[TenantSpec, ...],
    concurrency: int,
) -> tuple[dict, dict[str, list[FleetResponse]], MetricsRegistry]:
    async with FleetRouter(config, machine) as fleet:
        responses: dict[str, list[FleetResponse]] = {
            spec.name: [] for spec in specs
        }

        async def tenant_driver(spec: TenantSpec) -> None:
            limiter = asyncio.Semaphore(concurrency)

            async def paced(request: CollectiveRequest) -> None:
                async with limiter:
                    responses[spec.name].append(
                        await fleet.submit(spec.name, request)
                    )

            await asyncio.gather(*(paced(r) for r in spec.requests))

        await asyncio.gather(*(tenant_driver(spec) for spec in specs))
        await fleet.drain()
        return fleet.stats(), responses, fleet.merged_metrics()


def run_trial(
    machine: MachineConfig | None = None,
    trial: int = 0,
    seed: int = DEFAULTS["seed"],
    shards: int = DEFAULTS["shards"],
    tenants: int = DEFAULTS["tenants"],
    requests_per_tenant: int = DEFAULTS["requests_per_tenant"],
    concurrency: int = DEFAULTS["concurrency"],
    kill_shard: int | None = None,
    kill_after: int | None = None,
    outage_duration: int | None = None,
    max_reroutes: int = 2,
    timeout_s: float | None = None,
) -> dict[str, Any]:
    """One deterministic fleet run with a mid-run kill/revive.

    Returns a JSON-able summary (the sweep-point value): fleet stats
    with the health-transition log, per-tenant outcome counts and
    latency quantiles, and the SLO report against the merged metrics.
    """
    from .common import default_machine

    check_load(tenants, requests_per_tenant, concurrency, timeout_s)
    machine = machine or default_machine()
    effective_seed = trial_seed(seed, trial)
    num_dpus = (
        machine.system.banks_per_chip
        * machine.system.chips_per_rank
        * machine.system.ranks_per_channel
    )
    specs = _tenant_specs(
        num_dpus, tenants, requests_per_tenant, effective_seed
    )
    assignment = fleet_assignment([s.name for s in specs], shards)
    killed = kill_shard if kill_shard is not None else busiest_shard(
        assignment, shards
    )
    total = tenants * requests_per_tenant
    after = kill_after if kill_after is not None else total // 3
    duration = outage_duration if outage_duration is not None else total // 3
    config = FleetConfig(
        shards=shards,
        service=_service_config(),
        max_reroutes=max_reroutes,
        outages=(
            kill_shard_outage(
                killed, after, duration, seed=effective_seed
            ),
        ),
    )

    outer = active_metrics()
    registry = MetricsRegistry()
    with use_metrics(registry):
        coroutine = _drive(config, machine, specs, concurrency)
        if timeout_s is not None:
            async def _bounded():
                return await asyncio.wait_for(coroutine, timeout_s)
            try:
                stats, responses, merged = asyncio.run(_bounded())
            except asyncio.TimeoutError:
                raise FleetError(
                    f"fleet_resilience did not finish within "
                    f"{timeout_s:g}s of wall clock — the event loop is "
                    "likely deadlocked"
                ) from None
        else:
            stats, responses, merged = asyncio.run(coroutine)
        # Fold the fleet view (router + shard registries) into the run
        # registry so fleet.* families flow to the active outer registry
        # exactly like the service.* families the shards recorded.
        registry.merge(merged)
        unaffected = {
            tenant: home
            for tenant, home in assignment.items()
            if home != killed
        }
        slo = evaluate_slos(
            registry, default_fleet_objectives(unaffected, P99_SLO_S)
        )
    if outer is not None:
        outer.merge(registry)

    resolved = (
        stats["admitted"] + stats["rerouted"]
        + stats["rejected"] + stats["failed"]
    )
    if stats["submitted"] != total or resolved != total:
        raise FleetError(
            f"lost requests: drove {total} but fleet saw "
            f"submitted={stats['submitted']}, resolved={resolved}"
        )

    tenant_summaries: dict[str, Any] = {}
    for spec in specs:
        outcomes = {"admitted": 0, "rerouted": 0, "rejected": 0, "failed": 0}
        for response in responses[spec.name]:
            outcomes[response.outcome.value] += 1
        if sum(outcomes.values()) != len(spec.requests):
            raise FleetError(
                f"tenant {spec.name}: {len(spec.requests)} requests but "
                f"{sum(outcomes.values())} explicit outcomes"
            )
        sketch = tenant_latency_sketch(merged, spec.name)
        tenant_summaries[spec.name] = {
            "pattern": spec.pattern.value,
            "home": assignment[spec.name],
            **outcomes,
            "p50_s": sketch.quantile(50.0) if sketch is not None else None,
            "p99_s": sketch.quantile(99.0) if sketch is not None else None,
        }

    return {
        "trial": trial,
        "trial_seed": effective_seed,
        "killed_shard": killed,
        "kill_after": after,
        "revive_after": after + duration,
        "stats": stats,
        "tenants": tenant_summaries,
        "slo": slo.to_dict(),
    }


def _point(
    machine: MachineConfig,
    trial: int,
    seed: int,
    shards: int,
    tenants: int,
    requests_per_tenant: int,
    concurrency: int,
) -> dict[str, Any]:
    return run_trial(
        machine,
        trial=trial,
        seed=seed,
        shards=shards,
        tenants=tenants,
        requests_per_tenant=requests_per_tenant,
        concurrency=concurrency,
    )


def build_tables(values: "list[dict] | tuple[dict, ...]") -> tuple[
    ExperimentTable, ...
]:
    tenant_rows = []
    health_rows = []
    slo_rows = []
    for value in values:
        trial = value["trial"]
        for tenant, summary in sorted(value["tenants"].items()):
            tenant_rows.append(
                (
                    str(trial),
                    tenant,
                    f"shard-{summary['home']}"
                    + ("*" if summary["home"] == value["killed_shard"]
                       else ""),
                    str(summary["admitted"]),
                    str(summary["rerouted"]),
                    str(summary["rejected"]),
                    str(summary["failed"]),
                    "n/a" if summary["p50_s"] is None
                    else f"{summary['p50_s'] * 1e6:.1f}",
                    "n/a" if summary["p99_s"] is None
                    else f"{summary['p99_s'] * 1e6:.1f}",
                )
            )
        for transition in value["stats"]["transitions"]:
            health_rows.append(
                (
                    str(trial),
                    str(transition["at_submission"]),
                    f"shard-{transition['shard']}",
                    f"{transition['old']} -> {transition['new']}",
                    transition["reason"],
                )
            )
        for check in value["slo"]["checks"]:
            objective = check["objective"]
            label = objective.get("name") or (
                f"{objective['stat']}({objective['metric']}"
                + (
                    "{" + ",".join(
                        f"{k}={v}" for k, v in sorted(
                            objective.get("labels", {}).items()
                        )
                    ) + "}"
                    if objective.get("labels") else ""
                )
                + f") {objective['op']} {objective['threshold']:g}"
            )
            slo_rows.append(
                (
                    str(trial),
                    label,
                    "n/a" if check["observed"] is None
                    else f"{check['observed']:g}",
                    "ok" if check["passed"] else "FAIL",
                )
            )
    totals = {
        name: sum(v["stats"][name] for v in values)
        for name in ("submitted", "admitted", "rerouted", "rejected",
                     "failed", "reroutes")
    }
    load_table = ExperimentTable(
        "fleet_resilience",
        "Fleet load with a mid-run shard kill (* = killed home)",
        ("trial", "tenant", "home", "admitted", "rerouted", "rejected",
         "failed", "p50 (us)", "p99 (us)"),
        tuple(tenant_rows),
        notes=(
            f"{totals['submitted']} requests across {len(values)} "
            f"trial(s): {totals['admitted']} admitted + "
            f"{totals['rerouted']} rerouted + {totals['rejected']} "
            f"rejected + {totals['failed']} failed (zero lost); "
            f"{totals['reroutes']} reroute hops total"
        ),
    )
    health_table = ExperimentTable(
        "fleet_resilience",
        "Shard health transitions (fleet submission counter)",
        ("trial", "at", "shard", "transition", "reason"),
        tuple(health_rows),
        notes="kill and revive trigger on deterministic request counts",
    )
    slo_table = ExperimentTable(
        "fleet_resilience",
        "Fleet SLOs against the merged per-shard registries",
        ("trial", "objective", "observed", "verdict"),
        tuple(slo_rows),
        notes=(
            "latency objectives cover tenants whose home shard never "
            "failed — the graceful-degradation statement"
        ),
    )
    return (load_table, health_table, slo_table)


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    params = {
        name: DEFAULTS[name]
        for name in ("seed", "shards", "tenants", "requests_per_tenant",
                     "concurrency")
    }
    return tuple(
        SweepPoint(trial, {"trial": trial, **params})
        for trial in range(DEFAULTS["trials"])
    )


def _assemble(
    machine: MachineConfig, values: tuple[dict, ...]
) -> tuple[dict, ...]:
    """One JSON-able :func:`run_trial` summary per trial."""
    return values


SPEC = register_experiment(
    experiment_id="fleet_resilience",
    title="Fleet resilience: shard kill/revive under multi-tenant load",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
