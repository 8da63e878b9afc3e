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

from typing import Any

from ..config.fleet import FleetConfig, kill_shard_outage
from ..config.presets import MachineConfig
from ..errors import ConfigurationError, FleetError
from ..faults.campaign import trial_seed
from ..fleet import (
    FleetRouter,
    default_fleet_objectives,
    fleet_assignment,
    tenant_latency_sketch,
)
from ..observability import (
    MetricsRegistry,
    SloObjective,
    active_metrics,
    evaluate_slos,
    use_metrics,
)
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable, default_machine
from .tenant_service_load import (
    P99_SLO_S,
    check_load,
    closed_loop,
    run_bounded,
    service_config,
    tenant_names,
    tenant_specs,
)

DEFAULTS = {
    "shards": 3,
    "tenants": 5,
    "requests_per_tenant": 48,
    "concurrency": 4,
    "seed": 23,
    "trials": 3,
}


def busiest_shard(assignment: dict[str, int], shards: int) -> int:
    """The shard hosting the most tenants (ties -> lowest index).

    Killing this shard guarantees the outage actually displaces
    traffic, so the golden always exercises the reroute path.
    """
    loads = [0] * shards
    for home in assignment.values():
        loads[home] += 1
    return max(range(shards), key=lambda i: (loads[i], -i))


def fleet_config(
    trial: int = 0,
    seed: int = DEFAULTS["seed"],
    shards: int = DEFAULTS["shards"],
    tenants: int = DEFAULTS["tenants"],
    requests_per_tenant: int = DEFAULTS["requests_per_tenant"],
    kill_shard: int | None = None,
    kill_after: int | None = None,
    outage_duration: int | None = None,
    max_reroutes: int = 2,
) -> FleetConfig:
    """The fleet of one trial: ``shards`` copies of the
    :func:`~.tenant_service_load.service_config` cycle and one kill.

    By default the busiest shard dies a third of the way through the
    run's submissions and revives a third later; ``outage_duration=0``
    keeps it down.  A kill past the run's last submission never fires,
    so it is rejected.
    """
    total = tenants * requests_per_tenant
    after = kill_after if kill_after is not None else total // 3
    if after > total:
        raise ConfigurationError(
            f"kill after {after} submissions never fires: the run makes "
            f"only {total} ({tenants} tenant(s) x {requests_per_tenant})"
        )
    if kill_shard is None:
        names = tenant_names(tenants)
        kill_shard = busiest_shard(fleet_assignment(names, shards), shards)
    return FleetConfig(
        shards=shards,
        service=service_config(),
        max_reroutes=max_reroutes,
        outages=(
            kill_shard_outage(
                kill_shard,
                after,
                outage_duration if outage_duration is not None else total // 3,
                seed=trial_seed(seed, trial),
            ),
        ),
    )


def run_trial(
    config: FleetConfig,
    machine: MachineConfig | None = None,
    trial: int = 0,
    seed: int = DEFAULTS["seed"],
    tenants: int = DEFAULTS["tenants"],
    requests_per_tenant: int = DEFAULTS["requests_per_tenant"],
    concurrency: int = DEFAULTS["concurrency"],
    timeout_s: float | None = None,
) -> dict[str, Any]:
    """One deterministic run of a :func:`fleet_config` fleet, whose one
    outage plan is the trial's kill.

    Returns a JSON-able summary (the sweep-point value): fleet stats
    with the health-transition log, per-tenant outcome counts and
    latency quantiles, and the SLO report against the merged metrics.
    """
    check_load(tenants, requests_per_tenant, concurrency, timeout_s)
    machine = machine or default_machine()
    (outage,) = config.outages
    effective_seed = trial_seed(seed, trial)
    specs = tenant_specs(machine, tenants, requests_per_tenant, effective_seed)
    assignment = fleet_assignment([s.name for s in specs], config.shards)

    async def serve():
        async with FleetRouter(config, machine) as fleet:
            responses = await closed_loop(
                fleet, {s.name: s.requests for s in specs}, concurrency
            )
            return fleet.stats(), responses, fleet.merged_metrics()

    outer = active_metrics()
    registry = MetricsRegistry()
    with use_metrics(registry):
        stats, responses, merged = run_bounded(
            serve(), timeout_s, FleetError, "fleet_resilience"
        )
        # Fold the fleet view (router + shard registries) into the run
        # registry so fleet.* families flow to the active outer registry
        # exactly like the service.* families the shards recorded.
        registry.merge(merged)
        unaffected = {
            tenant: home
            for tenant, home in assignment.items()
            if home != outage.shard
        }
        slo = evaluate_slos(
            registry, default_fleet_objectives(unaffected, P99_SLO_S)
        )
    if outer is not None:
        outer.merge(registry)

    total = tenants * requests_per_tenant
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
        "killed_shard": outage.shard,
        "kill_after": outage.after_submissions,
        "revive_after": outage.revive_at,
        "stats": stats,
        "tenants": tenant_summaries,
        "slo": slo.to_dict(),
    }


def _point(
    machine: MachineConfig, shards: int, concurrency: int, **load: int
) -> dict[str, Any]:
    return run_trial(
        fleet_config(shards=shards, **load), machine,
        concurrency=concurrency, **load,
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
            slo_rows.append(
                (
                    str(trial),
                    SloObjective.from_dict(check["objective"]).describe(),
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
