"""Command-line interface for the PIMnet reproduction.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro list --json          # ... as machine-readable JSON
    python -m repro run fig10            # regenerate one figure/table
    python -m repro run all --jobs 4     # everything, 4 worker processes
    python -m repro run all --no-cache   # recompute, bypass the cache
    python -m repro run fig12 --trace t.json --metrics m.csv
    python -m repro run fig13 --seed 7   # override every seeded point
    python -m repro cache stats [--json] # what the result cache holds
    python -m repro cache clear          # drop all cached point results
    python -m repro schedcache stats     # stored schedule timing profiles
    python -m repro schedcache compile --shape 8x4x2   # prewarm profiles
    python -m repro schedcache clear     # drop stored timing profiles
    python -m repro info [--json]        # machine/backend summary
    python -m repro trace allreduce --payload 1MB --out trace.json
    python -m repro faults list          # named resilience campaigns
    python -m repro faults run mixed --seed 3 --json
    python -m repro faults run campaign.json --trials 64
    python -m repro conformance run      # cross-model agreement matrix
    python -m repro conformance run --mutate drop-flit   # sensitivity
    python -m repro conformance shrink conformance-*.json
    python -m repro service bench        # multi-tenant admission bench
    python -m repro serve --tenants 4 --requests 128 --json
    python3 pimbench/run.py              # benchmark (pimbench/README.md)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from .collectives.backend import registry
from .collectives.patterns import Collective, CollectiveRequest
from .config.presets import pimnet_sim_system
from .config.runner import RunnerConfig
from .config.trace import TraceConfig
from .config.units import parse_bytes
from .errors import ConfigurationError, ReproError, ScheduleError
from .observability import Instrumentation, build_instrumentation
from .runner.cache import DEFAULT_CACHE_DIR, ResultCache

#: Compact aliases accepted by ``repro trace`` on top of the enum values.
_COLLECTIVE_ALIASES = {
    "allreduce": Collective.ALL_REDUCE,
    "reducescatter": Collective.REDUCE_SCATTER,
    "allgather": Collective.ALL_GATHER,
    "alltoall": Collective.ALL_TO_ALL,
    "a2a": Collective.ALL_TO_ALL,
    "bcast": Collective.BROADCAST,
}


def _experiment_modules():
    from .experiments import EXPERIMENTS

    return EXPERIMENTS


def _parse_collective(name: str) -> Collective:
    normalized = name.strip().lower().replace("-", "").replace("_", "")
    if normalized in _COLLECTIVE_ALIASES:
        return _COLLECTIVE_ALIASES[normalized]
    for pattern in Collective:
        if pattern.value.replace("_", "") == normalized:
            return pattern
    known = sorted(
        set(_COLLECTIVE_ALIASES) | {p.value for p in Collective}
    )
    raise ValueError(
        f"unknown collective {name!r} (try: {', '.join(known)})"
    )


def cmd_list(args: argparse.Namespace) -> int:
    modules = _experiment_modules()
    entries = []
    for key in sorted(modules):
        doc = (modules[key].__doc__ or "").strip().splitlines()
        entries.append({"id": key, "summary": doc[0] if doc else ""})
    if getattr(args, "json", False):
        print(json.dumps({"experiments": entries}, indent=1))
        return 0
    print("available experiments:")
    for entry in entries:
        print(f"  {entry['id']:12s} {entry['summary']}")
    return 0


def _run_instrumentation(args: argparse.Namespace) -> Instrumentation:
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    return build_instrumentation(
        TraceConfig(
            enabled=trace_path is not None,
            metrics=metrics_path is not None,
            trace_path=trace_path,
            metrics_path=metrics_path,
        )
    )


def _write_outputs(instrumentation: Instrumentation) -> int:
    try:
        for path in instrumentation.write():
            print(f"wrote {path}")
    except OSError as exc:
        print(f"cannot write instrumentation output: {exc}", file=sys.stderr)
        return 1
    return 0


def _runner_config(args: argparse.Namespace) -> RunnerConfig:
    return RunnerConfig(
        jobs=args.jobs,
        cache_enabled=args.cache,
        cache_dir=args.cache_dir,
        point_timeout_s=args.timeout,
    )


def cmd_run(args: argparse.Namespace) -> int:
    from .runner import run_experiment

    modules = _experiment_modules()
    keys = sorted(modules) if args.experiment == "all" else [args.experiment]
    unknown = [k for k in keys if k not in modules]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(try: {', '.join(sorted(modules))})",
            file=sys.stderr,
        )
        return 2
    try:
        runner = _runner_config(args)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.clear_cache:
        removed = ResultCache(runner.cache_dir).clear()
        print(f"cleared {removed} cached result(s)", file=sys.stderr)
    seed = getattr(args, "seed", None)
    instrumentation = _run_instrumentation(args)
    hits = misses = 0
    try:
        with instrumentation.activate():
            for key in keys:
                with _experiment_span(instrumentation, key, seed=seed):
                    run = run_experiment(key, runner=runner, seed=seed)
                print(run.format())
                print()
                hits += run.cache_hits
                misses += run.cache_misses
    except ReproError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if seed is not None:
        print(f"seed: {seed}")
    if runner.cache_enabled:
        print(f"cache: {hits} hit(s), {misses} miss(es)")
    from .schedcache import active_schedule_cache

    sc = active_schedule_cache().counters
    if sc.schedule_hits or sc.schedule_misses or sc.timing_replays:
        print(
            f"schedcache: {sc.schedule_hits + sc.timing_replays} hit(s) "
            f"({sc.timing_replays} profile replay(s)), "
            f"{sc.schedule_misses} compile(s)"
        )
    return _write_outputs(instrumentation)


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached result(s)")
        return 0
    stats = cache.stats()
    if getattr(args, "json", False):
        print(json.dumps(stats, indent=1))
        return 0
    print(f"cache root: {stats['root']}")
    if not stats["experiments"]:
        print("  (empty)")
        return 0
    for name, info in stats["experiments"].items():
        print(
            f"  {name:18s} {info['entries']:4d} entr"
            f"{'y' if info['entries'] == 1 else 'ies'}, "
            f"{info['bytes']} bytes"
        )
    print(
        f"total: {stats['entries']} entr"
        f"{'y' if stats['entries'] == 1 else 'ies'}, "
        f"{stats['bytes']} bytes"
    )
    return 0


def cmd_schedcache(args: argparse.Namespace) -> int:
    import shutil
    from pathlib import Path

    from .schedcache import STORE_NAMESPACE, ScheduleCache

    store_dir = Path(args.cache_dir) / STORE_NAMESPACE

    if args.schedcache_command == "clear":
        removed = sum(1 for _ in store_dir.glob("*.json"))
        shutil.rmtree(store_dir, ignore_errors=True)
        print(f"cleared {removed} stored profile(s)")
        return 0

    if args.schedcache_command == "compile":
        try:
            collectives = (
                [_parse_collective(name) for name in args.collective]
                if args.collective
                else list(Collective)
            )
            shapes = [_parse_shape(spec) for spec in args.shape] or [
                _default_shape()
            ]
        except (ValueError, ScheduleError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        cache = ScheduleCache(store=ResultCache(args.cache_dir))
        network = pimnet_sim_system().pimnet
        try:
            for shape in shapes:
                for pattern in collectives:
                    cache.profile(pattern, shape, network)
        except ReproError as exc:
            print(f"schedcache compile failed: {exc}", file=sys.stderr)
            return 1
        counters = cache.counters
        print(
            f"compiled {counters.profile_misses} profile(s) "
            f"({counters.profile_disk_hits} already stored) "
            f"into {store_dir}"
        )
        return 0

    # stats
    entries = []
    for path in sorted(store_dir.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        params = entry.get("params", {})
        entries.append(
            {
                "structure": (
                    f"{params.get('collective', '?')}"
                    f"@{params.get('banks', '?')}x{params.get('chips', '?')}"
                    f"x{params.get('ranks', '?')}"
                    f"/root{params.get('root', '?')}"
                    f"/i{params.get('itemsize', '?')}"
                ),
                "bytes": path.stat().st_size,
            }
        )
    if getattr(args, "json", False):
        print(
            json.dumps(
                {"root": str(store_dir), "profiles": entries}, indent=1
            )
        )
        return 0
    print(f"schedcache store: {store_dir}")
    if not entries:
        print("  (empty; `repro schedcache compile` precompiles profiles)")
        return 0
    for entry in entries:
        print(f"  {entry['structure']:40s} {entry['bytes']} bytes")
    print(f"total: {len(entries)} stored profile(s)")
    return 0


def _parse_shape(spec: str):
    from .core.schedule import Shape

    parts = spec.lower().replace("x", " ").split()
    if len(parts) != 3:
        raise ValueError(
            f"shape must be BANKSxCHIPSxRANKS (e.g. 8x4x2), got {spec!r}"
        )
    try:
        banks, chips, ranks = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-integer shape axis in {spec!r}") from None
    return Shape(banks=banks, chips=chips, ranks=ranks)


def _default_shape():
    from .core.schedule import Shape

    system = pimnet_sim_system().system
    return Shape(
        banks=system.banks_per_chip,
        chips=system.chips_per_rank,
        ranks=system.ranks_per_channel,
    )


def _experiment_span(
    instrumentation: Instrumentation, key: str, seed: int | None = None
):
    if instrumentation.tracer is None:
        from .observability import NULL_SPAN

        return NULL_SPAN
    attrs = {} if seed is None else {"seed": seed}
    return instrumentation.tracer.span(
        f"experiment/{key}", category="experiment", **attrs
    )


def cmd_faults(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .faults import CAMPAIGN_PRESETS, run_campaign

    if args.faults_command == "list":
        entries = [
            {
                "name": name,
                "trials": preset.trials,
                "description": preset.description,
            }
            for name, preset in sorted(CAMPAIGN_PRESETS.items())
        ]
        if getattr(args, "json", False):
            print(json.dumps({"campaigns": entries}, indent=1))
            return 0
        print("available fault campaigns:")
        for entry in entries:
            print(f"  {entry['name']:16s} {entry['description']}")
        print("(or pass a JSON campaign file; see docs/FAULTS.md)")
        return 0

    instrumentation = _run_instrumentation(args)
    try:
        campaign = _resolve_campaign(args.campaign)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        if args.payload is not None:
            overrides["payload_bytes"] = parse_bytes(args.payload)
        if overrides:
            campaign = replace(campaign, **overrides)
        with instrumentation.activate():
            result = run_campaign(campaign, pimnet_sim_system())
            slo_report = _evaluate_slo_file(getattr(args, "slo", None))
    except (ReproError, ValueError, OSError) as exc:
        print(f"faults run failed: {exc}", file=sys.stderr)
        return 1
    summary = result.summary()
    slo_failed = slo_report is not None and not slo_report.ok
    if getattr(args, "json", False):
        summary["seed"] = campaign.seed
        if slo_report is not None:
            summary["slo"] = slo_report.to_dict()
        print(json.dumps(summary, indent=1))
        return _write_outputs(instrumentation) or (1 if slo_failed else 0)
    print(
        f"campaign {summary['name']!r}: {summary['trials']} trials, "
        f"seed {campaign.seed}"
    )
    print(
        f"  completed {summary['completed']}, "
        f"degraded {summary['degraded']}, aborted {summary['aborted']} "
        f"(completion rate {summary['completion_rate'] * 100:.1f}%)"
    )
    print(
        f"  mean bandwidth "
        f"{summary['mean_bandwidth_bytes_per_s'] / 1e9:.4f} GB/s, "
        f"mean retries {summary['mean_retries']:.1f}"
    )
    print(
        f"  latency p50 {summary['p50_latency_s'] * 1e6:.1f} us, "
        f"p99 {summary['p99_latency_s'] * 1e6:.1f} us, "
        f"p999 {summary['p999_latency_s'] * 1e6:.1f} us"
    )
    if slo_report is not None:
        print(slo_report.format())
    return _write_outputs(instrumentation) or (1 if slo_failed else 0)


def _evaluate_slo_file(path: str | None):
    """Evaluate ``--slo`` objectives against the active registry."""
    if path is None:
        return None
    from .observability import evaluate_slos, load_objectives
    from .observability.metrics import active_metrics

    registry = active_metrics()
    if registry is None:
        raise ConfigurationError(
            "--slo needs a metrics registry; pass --metrics PATH too"
        )
    return evaluate_slos(registry, load_objectives(path))


def _resolve_campaign(ref: str):
    """A preset name, or a path to a JSON campaign spec."""
    from .config.faults import FaultCampaignConfig
    from .faults import CAMPAIGN_PRESETS

    if ref in CAMPAIGN_PRESETS:
        return CAMPAIGN_PRESETS[ref]
    if ref.endswith(".json"):
        with open(ref, encoding="utf-8") as handle:
            return FaultCampaignConfig.from_dict(json.load(handle))
    raise ValueError(
        f"unknown campaign {ref!r} "
        f"(presets: {', '.join(sorted(CAMPAIGN_PRESETS))}; "
        "or pass a .json campaign file)"
    )


def cmd_conformance(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .config.conformance import ConformanceConfig
    from .conformance import (
        ConformancePoint,
        Mutation,
        enumerate_matrix,
        load_reproducer,
        replay_reproducer,
        run_matrix,
        shrink_point,
        write_reproducer,
    )

    try:
        config = ConformanceConfig()
        overrides = {}
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        if getattr(args, "rel_tol", None) is not None:
            overrides["latency_rel_tol"] = args.rel_tol
        if overrides:
            config = replace(config, **overrides)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.conformance_command == "list":
        points = [p.params for p in enumerate_matrix(config)]
        if getattr(args, "json", False):
            print(json.dumps({"points": points}, indent=1))
            return 0
        print(f"conformance matrix ({len(points)} points):")
        for params in points:
            print(f"  {ConformancePoint.from_params(params).label()}")
        return 0

    if args.conformance_command == "shrink":
        try:
            data = load_reproducer(args.reproducer)
            report = replay_reproducer(data)
            if report["ok"]:
                print(
                    f"{args.reproducer}: point "
                    f"{ConformancePoint.from_params(data['point']).label()} "
                    "no longer fails — nothing to shrink"
                )
                return 0
            mutation_data = data.get("mutation")
            mutation = (
                Mutation.from_dict(mutation_data) if mutation_data else None
            )
            result = shrink_point(
                ConformancePoint.from_params(data["point"]),
                ConformanceConfig.from_dict(data.get("config") or {}),
                mutation=mutation,
            )
            out = args.out or args.reproducer
            write_reproducer(out, result, config, mutation)
        except (ReproError, OSError) as exc:
            print(f"conformance shrink failed: {exc}", file=sys.stderr)
            return 1
        print(
            f"minimized to {result.point.label()} "
            f"({result.attempts} attempt(s)); wrote {out}"
        )
        return 1

    # run
    mutation = None
    if getattr(args, "mutate", None):
        try:
            mutation = Mutation(args.mutate, seed=args.mutate_seed)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    instrumentation = _run_instrumentation(args)
    try:
        with instrumentation.activate():
            report = run_matrix(
                config,
                mutation=mutation,
                cache_enabled=args.cache,
                cache_dir=args.cache_dir,
            )
    except ReproError as exc:
        print(f"conformance run failed: {exc}", file=sys.stderr)
        return 1

    reproducers: list[str] = []
    if not report.ok:
        for failing in report.failures:
            point = ConformancePoint.from_params(failing["point"])
            try:
                result = shrink_point(point, config, mutation=mutation)
            except ReproError:
                continue
            name = (
                "conformance-"
                + result.point.label().replace("@", "-").replace("/", "-")
                + ".json"
            )
            path = write_reproducer(
                f"{args.reproducer_dir}/{name}", result, config, mutation
            )
            reproducers.append(str(path))

    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "points": len(report.reports),
                    "failures": len(report.failures),
                    "cache_hits": report.cache_hits,
                    "cache_misses": report.cache_misses,
                    "reports": list(report.reports),
                    "reproducers": reproducers,
                },
                indent=1,
            )
        )
    else:
        print(report.format())
        for path in reproducers:
            print(f"wrote reproducer {path}")
    if _write_outputs(instrumentation):
        return 1
    return 0 if report.ok else 1


def cmd_service(args: argparse.Namespace) -> int:
    """``repro service bench`` / ``repro serve``: drive the multi-tenant
    collective service closed-loop and report admission + latency."""
    from .config.service import (
        ServiceConfig,
        TenantQuotaConfig,
        TimeSlotConfig,
    )
    from .experiments import tenant_service_load

    try:
        config = ServiceConfig(
            slots=(
                TimeSlotConfig(
                    "all_reduce", ("all_reduce",),
                    time_window_s=args.window,
                    max_multiplexing=args.max_multiplexing,
                ),
                TimeSlotConfig(
                    "reduce_scatter", ("reduce_scatter",),
                    time_window_s=args.window,
                    max_multiplexing=args.max_multiplexing,
                ),
            ),
            switch_time_s=args.switch,
            queue_limit=args.queue_limit,
            default_quota=TenantQuotaConfig(
                max_queued=args.max_queued, max_per_slot=args.max_per_slot
            ),
        )
    except ConfigurationError as exc:
        print(f"service bench failed: {exc}", file=sys.stderr)
        return 1
    instrumentation = _run_instrumentation(args)
    try:
        with instrumentation.activate():
            result = tenant_service_load.run(
                tenants=args.tenants,
                requests_per_tenant=args.requests,
                concurrency=args.concurrency,
                seed=args.seed,
                config=config,
                timeout_s=args.timeout,
            )
            slo_file_report = _evaluate_slo_file(getattr(args, "slo", None))
    except ConfigurationError as exc:
        print(f"service bench: {exc}", file=sys.stderr)
        return 2
    except (ReproError, ValueError, OSError) as exc:
        print(f"service bench failed: {exc}", file=sys.stderr)
        return 1
    slo_failed = not result.slo.ok or (
        slo_file_report is not None and not slo_file_report.ok
    )
    if getattr(args, "json", False):
        payload = {
            "seed": args.seed,
            "params": result.params,
            "stats": result.stats,
            "tenants": [
                {
                    "tenant": tenant,
                    "pattern": pattern,
                    "submitted": submitted,
                    "admitted": admitted,
                    "rejected": rejected,
                    "p50_s": p50,
                    "p99_s": p99,
                }
                for tenant, pattern, submitted, admitted, rejected, p50, p99
                in result.tenant_rows
            ],
            "slo": result.slo.to_dict(),
        }
        if slo_file_report is not None:
            payload["slo_file"] = slo_file_report.to_dict()
        print(json.dumps(payload, indent=1))
        return _write_outputs(instrumentation) or (1 if slo_failed else 0)
    print(f"seed: {args.seed}")
    print(tenant_service_load.format_table(result))
    if slo_file_report is not None:
        print(slo_file_report.format())
    return _write_outputs(instrumentation) or (1 if slo_failed else 0)


def cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet serve|bench|status``: the sharded fleet layer."""
    from .experiments import fleet_resilience
    from .fleet import ShardHealth, fleet_assignment, shard_ranking

    if args.fleet_command == "status":
        tenants = fleet_resilience.tenant_names(args.tenants)
        assignment = fleet_assignment(tenants, args.shards)
        down = set(args.kill_shard or ())
        for shard in down:
            if not 0 <= shard < args.shards:
                print(
                    f"--kill-shard {shard} out of range for "
                    f"{args.shards} shard(s)",
                    file=sys.stderr,
                )
                return 2
        health = {
            index: (
                ShardHealth.DOWN if index in down else ShardHealth.HEALTHY
            )
            for index in range(args.shards)
        }
        routes = {}
        for tenant in tenants:
            ranking = shard_ranking(tenant, args.shards)
            serving = [i for i in ranking if health[i].serving]
            routes[tenant] = {
                "home": assignment[tenant],
                "ranking": list(ranking),
                "routed_to": serving[0] if serving else None,
            }
        if getattr(args, "json", False):
            payload = {
                "shards": {
                    f"shard-{index}": {
                        "health": health[index].value,
                        "tenants": sorted(
                            t for t, home in assignment.items()
                            if home == index
                        ),
                    }
                    for index in range(args.shards)
                },
                "tenants": routes,
            }
            print(json.dumps(payload, indent=1))
            return 0
        print(f"fleet: {args.shards} shard(s), {args.tenants} tenant(s)")
        for index in range(args.shards):
            homed = sorted(
                t for t, home in assignment.items() if home == index
            )
            print(
                f"  shard-{index}  {health[index].value:8s} "
                f"home to: {', '.join(homed) if homed else '(none)'}"
            )
        for tenant in tenants:
            route = routes[tenant]
            ranking = " > ".join(str(i) for i in route["ranking"])
            target = (
                f"shard-{route['routed_to']}"
                if route["routed_to"] is not None
                else "UNROUTABLE"
            )
            print(f"  {tenant:8s} ranking [{ranking}] -> {target}")
        return 0

    # bench / serve: one deterministic trial, optional mid-run kill.
    instrumentation = _run_instrumentation(args)
    kill = args.kill_shard[0] if args.kill_shard else None
    try:
        with instrumentation.activate():
            value = fleet_resilience.run_trial(
                trial=0,
                seed=args.seed,
                shards=args.shards,
                tenants=args.tenants,
                requests_per_tenant=args.requests,
                concurrency=args.concurrency,
                kill_shard=kill,
                kill_after=args.kill_after,
                outage_duration=args.outage_duration,
                max_reroutes=args.max_reroutes,
                timeout_s=args.timeout,
            )
            slo_file_report = _evaluate_slo_file(getattr(args, "slo", None))
    except ConfigurationError as exc:
        print(f"fleet bench: {exc}", file=sys.stderr)
        return 2
    except (ReproError, ValueError, OSError) as exc:
        print(f"fleet bench failed: {exc}", file=sys.stderr)
        return 1
    slo_failed = not value["slo"]["ok"] or (
        slo_file_report is not None and not slo_file_report.ok
    )
    if getattr(args, "json", False):
        payload = {
            "seed": args.seed,
            "params": {
                "shards": args.shards,
                "tenants": args.tenants,
                "requests_per_tenant": args.requests,
                "concurrency": args.concurrency,
                "max_reroutes": args.max_reroutes,
            },
            **value,
        }
        if slo_file_report is not None:
            payload["slo_file"] = slo_file_report.to_dict()
        print(json.dumps(payload, indent=1))
        return _write_outputs(instrumentation) or (1 if slo_failed else 0)
    print(f"seed: {args.seed}")
    print(fleet_resilience.format_table([value]))
    if slo_file_report is not None:
        print(slo_file_report.format())
    return _write_outputs(instrumentation) or (1 if slo_failed else 0)


def cmd_verify(_: argparse.Namespace) -> int:
    from .workloads import all_passed, verify_all

    results = verify_all()
    for r in results:
        status = "ok" if r.passed else f"FAIL ({r.detail})"
        print(f"  {r.workload:6s} {status}")
    if all_passed(results):
        print("all workloads verified against single-node references")
        return 0
    return 1


def _info_payload() -> dict:
    machine = pimnet_sim_system()
    system = machine.system
    net = machine.pimnet
    return {
        "version": __version__,
        "paper": "PIMnet (HPCA 2025)",
        "machine": {
            "num_dpus": system.banks_per_channel,
            "banks_per_chip": system.banks_per_chip,
            "chips_per_rank": system.chips_per_rank,
            "ranks_per_channel": system.ranks_per_channel,
            "dpu_frequency_hz": system.dpu.frequency_hz,
        },
        "backends": registry.keys(),
        "tiers": {
            "inter_bank_bytes_per_s": (
                net.inter_bank.bandwidth_per_channel_bytes_per_s
            ),
            "inter_chip_bytes_per_s": (
                net.inter_chip.bandwidth_per_channel_bytes_per_s
            ),
            "inter_rank_bytes_per_s": (
                net.inter_rank.bandwidth_per_channel_bytes_per_s
            ),
        },
    }


def cmd_info(args: argparse.Namespace) -> int:
    payload = _info_payload()
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
        return 0
    machine = payload["machine"]
    tiers = payload["tiers"]
    print(f"repro {payload['version']} — PIMnet (HPCA 2025) reproduction")
    print(
        f"default machine: {machine['num_dpus']} DPUs "
        f"({machine['banks_per_chip']} banks x "
        f"{machine['chips_per_rank']} chips "
        f"x {machine['ranks_per_channel']} ranks), "
        f"{machine['dpu_frequency_hz'] / 1e6:.0f} MHz DPUs"
    )
    print(f"backends: {', '.join(payload['backends'])}")
    print(
        "tiers: "
        f"inter-bank {tiers['inter_bank_bytes_per_s'] / 1e9:.2f} GB/s, "
        f"inter-chip {tiers['inter_chip_bytes_per_s'] / 1e9:.2f} GB/s, "
        f"inter-rank {tiers['inter_rank_bytes_per_s'] / 1e9:.2f} GB/s"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        pattern = _parse_collective(args.collective)
        payload_bytes = parse_bytes(args.payload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    machine = pimnet_sim_system()
    instrumentation = build_instrumentation(
        TraceConfig(
            enabled=True,
            metrics=True,
            clock=args.clock,
            trace_path=args.out,
            metrics_path=args.metrics,
        )
    )
    tracer = instrumentation.tracer
    try:
        with instrumentation.activate():
            with tracer.span(
                f"trace/{pattern.value}",
                category="cli",
                backend=args.backend,
                payload_bytes=payload_bytes,
            ) as root:
                backend = registry.create(args.backend, machine)
                request = CollectiveRequest(pattern, payload_bytes)
                breakdown = backend.timing(request)
                root.set_sim_window(0.0, breakdown.total_s)
                if _has_phase_timeline(args.backend, pattern, payload_bytes,
                                       machine):
                    from .core.timeline import allreduce_timeline

                    allreduce_timeline(payload_bytes, machine)
                else:
                    _record_breakdown_spans(tracer, breakdown)
    except ReproError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(instrumentation.tree())
    return _write_outputs(instrumentation)


def _has_phase_timeline(
    backend_key: str, pattern: Collective, payload_bytes: int, machine
) -> bool:
    """Whether the Algorithm 1 phase timeline applies to this request."""
    return (
        backend_key == "P"
        and pattern is Collective.ALL_REDUCE
        and payload_bytes % (8 * machine.system.banks_per_channel) == 0
    )


def _record_breakdown_spans(tracer, breakdown) -> None:
    """Generic fallback: one sim-time span per breakdown component.

    Components are laid end to end in Fig 11 order; backends without an
    Algorithm 1 phase timeline (host paths, prior work) still get a
    meaningful simulated-time trace this way.
    """
    cursor = 0.0
    for component, seconds in breakdown.as_dict().items():
        if seconds <= 0:
            continue
        name = component.removesuffix("_s").replace("_", "-")
        tracer.record(
            name,
            cursor,
            cursor + seconds,
            category="phase",
            component=component,
        )
        cursor += seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PIMnet (HPCA 2025) evaluation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="enumerate experiments")
    p_list.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id, e.g. fig10")
    p_run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep points (default: 1, serial)",
    )
    p_run.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse/store point results in the on-disk cache "
        "(default: on; --no-cache recomputes everything)",
    )
    p_run.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_run.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop all cached results before running",
    )
    p_run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point timeout when running in parallel",
    )
    p_run.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the 'seed' param of every seeded sweep point; "
        "recorded in the run output and trace metadata",
    )
    p_run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of the run to PATH",
    )
    p_run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write collected metrics to PATH (.csv for CSV, else JSON)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="show cached entries per experiment"
    )
    p_cache_stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_cache_stats.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_cache_stats.set_defaults(func=cmd_cache)
    p_cache_clear = cache_sub.add_parser(
        "clear", help="remove every cached result"
    )
    p_cache_clear.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_cache_clear.set_defaults(func=cmd_cache)

    p_sched = sub.add_parser(
        "schedcache",
        help="inspect, clear, or precompile the schedule-compilation cache",
    )
    sched_sub = p_sched.add_subparsers(
        dest="schedcache_command", required=True
    )
    p_sched_stats = sched_sub.add_parser(
        "stats", help="show stored timing profiles"
    )
    p_sched_stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_sched_stats.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_sched_stats.set_defaults(func=cmd_schedcache)
    p_sched_clear = sched_sub.add_parser(
        "clear", help="remove every stored timing profile"
    )
    p_sched_clear.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_sched_clear.set_defaults(func=cmd_schedcache)
    p_sched_compile = sched_sub.add_parser(
        "compile",
        help="precompile timing profiles into the on-disk store",
    )
    p_sched_compile.add_argument(
        "--collective",
        action="append",
        metavar="NAME",
        default=[],
        help="collective to precompile (repeatable; default: all)",
    )
    p_sched_compile.add_argument(
        "--shape",
        action="append",
        metavar="BxCxR",
        default=[],
        help="banks x chips x ranks structure (repeatable; "
        "default: the default machine's shape)",
    )
    p_sched_compile.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_sched_compile.set_defaults(func=cmd_schedcache)

    p_info = sub.add_parser("info", help="show machine/backend summary")
    p_info.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_info.set_defaults(func=cmd_info)

    p_verify = sub.add_parser(
        "verify",
        help="check every workload against its single-node reference",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_trace = sub.add_parser(
        "trace",
        help="trace one collective and export spans/metrics",
    )
    p_trace.add_argument(
        "collective",
        help="pattern to trace, e.g. allreduce, alltoall, broadcast",
    )
    p_trace.add_argument(
        "--payload",
        default="1MB",
        help="per-DPU payload size, e.g. 32KB or 1MB (binary units)",
    )
    p_trace.add_argument(
        "--backend",
        default="P",
        help="backend key (default P; see 'repro info' for the list)",
    )
    p_trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON (Perfetto-loadable) to PATH",
    )
    p_trace.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write collected metrics to PATH (.csv for CSV, else JSON)",
    )
    p_trace.add_argument(
        "--clock",
        choices=("auto", "sim", "wall"),
        default="auto",
        help="time axis for the Chrome trace (default: auto)",
    )
    p_trace.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the span-tree dump on stdout",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_faults = sub.add_parser(
        "faults",
        help="run deterministic fault-injection campaigns",
    )
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_faults_list = faults_sub.add_parser(
        "list", help="enumerate the named campaign presets"
    )
    p_faults_list.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_faults_list.set_defaults(func=cmd_faults)
    p_faults_run = faults_sub.add_parser(
        "run", help="run one campaign (preset name or JSON spec file)"
    )
    p_faults_run.add_argument(
        "campaign",
        help="preset name (see 'repro faults list') or path to a "
        ".json campaign spec (format: docs/FAULTS.md)",
    )
    p_faults_run.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the campaign seed",
    )
    p_faults_run.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="override the campaign trial count",
    )
    p_faults_run.add_argument(
        "--payload",
        default=None,
        metavar="SIZE",
        help="override the payload, e.g. 64KB or 1MB (binary units)",
    )
    p_faults_run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the final metrics snapshot (counters + latency "
        "histograms) to PATH (.csv for CSV, .prom for Prometheus, "
        "else JSON)",
    )
    p_faults_run.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="evaluate declarative SLO objectives (JSON, see "
        "docs/OBSERVABILITY.md) against the campaign's metrics; "
        "violations exit nonzero (requires --metrics)",
    )
    p_faults_run.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_faults_run.set_defaults(func=cmd_faults)

    p_conf = sub.add_parser(
        "conformance",
        help="differentially validate the analytic, cycle-level, and "
        "functional collective models",
    )
    conf_sub = p_conf.add_subparsers(
        dest="conformance_command", required=True
    )
    p_conf_run = conf_sub.add_parser(
        "run", help="run the full conformance matrix"
    )
    p_conf_run.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the payload/mutation RNG seed",
    )
    p_conf_run.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        metavar="F",
        help="override the analytic-vs-NoC relative latency tolerance",
    )
    p_conf_run.add_argument(
        "--mutate",
        default=None,
        metavar="MODE",
        help="inject one seeded defect per point "
        "(offset, drop-transfer, drop-flit, stall) to prove the "
        "engine catches divergence; disables the cache",
    )
    p_conf_run.add_argument(
        "--mutate-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the mutation target RNG (default: 0)",
    )
    p_conf_run.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse/store point reports in the on-disk cache "
        "(default: on; --no-cache recomputes everything)",
    )
    p_conf_run.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    )
    p_conf_run.add_argument(
        "--reproducer-dir",
        metavar="PATH",
        default=".",
        help="where to write JSON reproducers for failing points "
        "(default: current directory)",
    )
    p_conf_run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the final metrics snapshot to PATH "
        "(.csv for CSV, .prom for Prometheus, else JSON)",
    )
    p_conf_run.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_conf_run.set_defaults(func=cmd_conformance)
    p_conf_list = conf_sub.add_parser(
        "list", help="enumerate the matrix points"
    )
    p_conf_list.add_argument(
        "--seed", type=int, default=None, help=argparse.SUPPRESS
    )
    p_conf_list.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_conf_list.set_defaults(func=cmd_conformance)
    p_conf_shrink = conf_sub.add_parser(
        "shrink", help="replay and re-minimize a JSON reproducer"
    )
    p_conf_shrink.add_argument(
        "reproducer",
        help="path to a reproducer written by 'repro conformance run'",
    )
    p_conf_shrink.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="where to write the minimized reproducer "
        "(default: overwrite the input)",
    )
    p_conf_shrink.set_defaults(func=cmd_conformance)

    def _service_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--tenants", type=int, default=4, metavar="N",
            help="number of synthetic tenants (default: 4)",
        )
        parser.add_argument(
            "--requests", type=int, default=512, metavar="N",
            help="requests per tenant (default: 512)",
        )
        parser.add_argument(
            "--concurrency", type=int, default=8, metavar="N",
            help="closed-loop outstanding requests per tenant (default: 8)",
        )
        parser.add_argument(
            "--seed", type=int, default=11, metavar="N",
            help="payload-mix seed (default: 11)",
        )
        parser.add_argument(
            "--window", type=float, default=500e-6, metavar="SECONDS",
            help="time window of each slot (default: 500us)",
        )
        parser.add_argument(
            "--switch", type=float, default=20e-6, metavar="SECONDS",
            help="switch (dead) time between slots (default: 20us)",
        )
        parser.add_argument(
            "--max-multiplexing", type=int, default=2, metavar="N",
            help="distinct schedule structures per slot occurrence "
            "(default: 2)",
        )
        parser.add_argument(
            "--queue-limit", type=int, default=64, metavar="N",
            help="total admission queue bound (default: 64)",
        )
        parser.add_argument(
            "--max-queued", type=int, default=8, metavar="N",
            help="per-tenant queued-request quota (default: 8)",
        )
        parser.add_argument(
            "--max-per-slot", type=int, default=4, metavar="N",
            help="per-tenant admissions per slot occurrence (default: 4)",
        )
        parser.add_argument(
            "--timeout", type=float, default=120.0, metavar="SECONDS",
            help="hard wall-clock bound; a deadlocked event loop fails "
            "fast (default: 120)",
        )
        parser.add_argument(
            "--json", action="store_true",
            help="emit the full report as JSON",
        )
        parser.add_argument(
            "--trace", metavar="PATH", default=None,
            help="write a Chrome trace-event JSON of the run to PATH",
        )
        parser.add_argument(
            "--metrics", metavar="PATH", default=None,
            help="write collected metrics to PATH (.csv for CSV, else "
            "JSON)",
        )
        parser.add_argument(
            "--slo", metavar="PATH", default=None,
            help="evaluate extra SLO objectives from a JSON file "
            "(requires --metrics); nonzero exit on violation",
        )
        parser.set_defaults(func=cmd_service)

    p_service = sub.add_parser(
        "service",
        help="multi-tenant async collective service",
    )
    service_sub = p_service.add_subparsers(
        dest="service_command", required=True
    )
    p_service_bench = service_sub.add_parser(
        "bench",
        help="closed-loop tenant load through the time-slot scheduler",
    )
    _service_options(p_service_bench)
    # `repro serve` is the short spelling of `repro service bench`.
    p_serve = sub.add_parser(
        "serve", help="alias for 'service bench'"
    )
    _service_options(p_serve)

    def _fleet_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--shards", type=int, default=3, metavar="N",
            help="number of service shards (default: 3)",
        )
        parser.add_argument(
            "--tenants", type=int, default=5, metavar="N",
            help="number of synthetic tenants (default: 5)",
        )
        parser.add_argument(
            "--kill-shard", type=int, action="append", default=None,
            metavar="I",
            help="shard to take down (status: mark down; bench: kill "
            "mid-run; default for bench: the busiest shard)",
        )
        parser.add_argument(
            "--json", action="store_true",
            help="emit the full report as JSON",
        )

    def _fleet_bench_options(parser: argparse.ArgumentParser) -> None:
        _fleet_common(parser)
        parser.add_argument(
            "--requests", type=int, default=48, metavar="N",
            help="requests per tenant (default: 48)",
        )
        parser.add_argument(
            "--concurrency", type=int, default=4, metavar="N",
            help="closed-loop outstanding requests per tenant "
            "(default: 4)",
        )
        parser.add_argument(
            "--seed", type=int, default=23, metavar="N",
            help="payload-mix and fault-sampling seed (default: 23)",
        )
        parser.add_argument(
            "--kill-after", type=int, default=None, metavar="N",
            help="fleet submissions before the kill (default: a third "
            "of the total)",
        )
        parser.add_argument(
            "--outage-duration", type=int, default=None, metavar="N",
            help="submissions the shard stays down (default: a third "
            "of the total)",
        )
        parser.add_argument(
            "--max-reroutes", type=int, default=2, metavar="N",
            help="extra shards to try after the first choice "
            "(default: 2)",
        )
        parser.add_argument(
            "--timeout", type=float, default=120.0, metavar="SECONDS",
            help="hard wall-clock bound; a deadlocked event loop fails "
            "fast (default: 120)",
        )
        parser.add_argument(
            "--trace", metavar="PATH", default=None,
            help="write a Chrome trace-event JSON of the run to PATH",
        )
        parser.add_argument(
            "--metrics", metavar="PATH", default=None,
            help="write collected metrics (fleet.* families included) "
            "to PATH (.csv for CSV, else JSON)",
        )
        parser.add_argument(
            "--slo", metavar="PATH", default=None,
            help="evaluate extra SLO objectives from a JSON file "
            "(requires --metrics); nonzero exit on violation",
        )
        parser.set_defaults(func=cmd_fleet)

    p_fleet = sub.add_parser(
        "fleet",
        help="sharded fleet: N service shards behind a retry router",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fleet_bench = fleet_sub.add_parser(
        "bench",
        help="closed-loop fleet load with an optional mid-run shard kill",
    )
    _fleet_bench_options(p_fleet_bench)
    # `repro fleet serve` is the long-lived spelling of `fleet bench`.
    p_fleet_serve = fleet_sub.add_parser(
        "serve", help="alias for 'fleet bench'"
    )
    _fleet_bench_options(p_fleet_serve)
    p_fleet_status = fleet_sub.add_parser(
        "status",
        help="show the deterministic tenant->shard assignment and health",
    )
    _fleet_common(p_fleet_status)
    p_fleet_status.set_defaults(func=cmd_fleet)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
