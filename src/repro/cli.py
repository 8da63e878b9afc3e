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

Every subcommand runs through :func:`_run` and shares its exit codes:
0 ok; 1 runtime failure (a library or I/O error, a failed SLO, a failed
conformance or verification report, or an unwritable output file); 2
bad arguments (argv, or a file it names, that does not describe a valid
run).  Failures print one ``"<command> failed: <msg>"`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__
from .collectives.backend import registry
from .collectives.patterns import Collective, CollectiveRequest
from .config.presets import pimnet_sim_system
from .config.runner import DEFAULT_CACHE_DIR, RunnerConfig
from .config.trace import TRACE_CLOCKS, TraceConfig
from .config.units import check_number, parse_bytes
from .errors import ConfigurationError, ReproError
from .observability import (
    Instrumentation,
    MetricsRegistry,
    active_metrics,
    active_tracer,
    build_instrumentation,
    evaluate_slos,
    format_span_tree,
    load_objectives,
    trace_span,
    use_metrics,
)
from .runner.cache import ResultCache
from .runner.spec import format_tables

#: Compact aliases accepted by ``repro trace`` on top of the enum values.
_COLLECTIVE_ALIASES = {
    "allreduce": Collective.ALL_REDUCE,
    "reducescatter": Collective.REDUCE_SCATTER,
    "allgather": Collective.ALL_GATHER,
    "alltoall": Collective.ALL_TO_ALL,
    "a2a": Collective.ALL_TO_ALL,
    "bcast": Collective.BROADCAST,
}

#: Every option more than one subcommand takes, declared once;
#: :func:`_subcommand` adds the ones a subcommand names by dest.
_SHARED_OPTIONS: dict[str, dict[str, Any]] = {
    "--json": dict(action="store_true", help="emit machine-readable JSON"),
    "--metrics": dict(
        metavar="PATH", default=None,
        help="write collected metrics to PATH (.csv for CSV, .prom for "
        "Prometheus, else JSON)",
    ),
    "--trace": dict(
        metavar="PATH", default=None,
        help="write a Chrome trace-event JSON of the run to PATH",
    ),
    "--slo": dict(
        metavar="PATH", default=None,
        help="evaluate SLO objectives from a JSON file (see "
        "docs/OBSERVABILITY.md) against the run's metrics; a violation "
        "exits 1 (requires --metrics)",
    ),
    "--cache-dir": dict(
        metavar="PATH", default=DEFAULT_CACHE_DIR,
        help=f"cache location (default: {DEFAULT_CACHE_DIR})",
    ),
    "--cache": dict(
        action=argparse.BooleanOptionalAction, default=True,
        help="reuse/store results in the on-disk cache "
        "(default: on; --no-cache recomputes everything)",
    ),
    "--seed": dict(type=int, default=None, metavar="N"),
    "--timeout": dict(
        type=float, default=120.0, metavar="SECONDS",
        help="hard wall-clock bound; a deadlocked event loop fails "
        "fast (default: 120)",
    ),
}


class _Command(NamedTuple):
    """One subcommand, in the two phases :func:`_run` drives.

    ``configure(args)`` turns argv, and any file it names, into the
    config ``execute(args, config)`` runs on.  ``text`` renders the
    result for people; ``--json`` prints ``payload(args, result)``, by
    default the result itself.  ``ok(result)`` is False for a result
    that must exit 1.  ``name`` prefixes error messages.
    """

    name: str
    execute: Callable[[argparse.Namespace, Any], Any]
    text: Callable[[argparse.Namespace, Any], str | None]
    configure: Callable[[argparse.Namespace], Any] = lambda args: None
    payload: Callable[[argparse.Namespace, Any], dict] | None = None
    ok: Callable[[Any], bool] = lambda result: True
    #: Key of the ``--slo`` report in the JSON payload.
    slo_key: str = "slo"
    #: Record spans and metrics whatever the options (``repro trace``).
    traced: bool = False


def _subcommand(
    sub, name: str, help_text: str, /, *shared: str | tuple[str, dict],
    arguments: dict[str, dict] | None = None, **command: Any,
) -> None:
    """Add subcommand ``name``.

    ``shared`` names options of :data:`_SHARED_OPTIONS` by dest, alone or
    as a ``(dest, keywords)`` pair whose keywords (a per-command default
    or help) go on top of the table's.  ``arguments`` maps the command's
    own options -- their space-separated spellings, or a positional's
    name -- to ``add_argument`` keywords.  ``command`` holds the
    :class:`_Command` fields; ``name`` defaults to the command path.
    """
    parser = sub.add_parser(name, help=help_text)
    for option in shared:
        dest, keywords = (option, {}) if isinstance(option, str) else option
        flag = "--" + dest.replace("_", "-")
        parser.add_argument(flag, **{**_SHARED_OPTIONS[flag], **keywords})
    for spellings, keywords in (arguments or {}).items():
        parser.add_argument(*spellings.split(), **keywords)
    command.setdefault("name", parser.prog.removeprefix("repro "))
    parser.set_defaults(handler=_Command(**command))


def _group(sub, name: str, help_text: str):
    """A subcommand that only holds subcommands: ``repro NAME SUB``."""
    return sub.add_parser(name, help=help_text).add_subparsers(
        dest=f"{name}_command", required=True
    )


def _instrumentation(
    args: argparse.Namespace, traced: bool
) -> Instrumentation:
    """The tracer/registry the options ask for (``repro trace`` always
    records both and names its Chrome trace ``--out``)."""
    trace_path = args.out if traced else getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    return build_instrumentation(
        TraceConfig(
            enabled=traced or trace_path is not None,
            metrics=traced or metrics_path is not None,
            clock=getattr(args, "clock", "auto"),
            trace_path=trace_path,
            metrics_path=metrics_path,
        )
    )


def _run(command: _Command, args: argparse.Namespace) -> int:
    """Configure, execute and report one subcommand; the exit code."""

    def fail(message: object, code: int) -> int:
        print(f"{command.name} failed: {message}", file=sys.stderr)
        return code

    slo_path = getattr(args, "slo", None)
    objectives = None
    try:
        if slo_path is not None:
            if args.metrics is None:
                raise ConfigurationError(
                    "--slo needs a metrics registry; pass --metrics PATH too"
                )
            objectives = load_objectives(slo_path)
        config = command.configure(args)
        instrumentation = _instrumentation(args, command.traced)
    except (ReproError, ValueError, OSError) as exc:
        return fail(exc, 2)
    slo = None
    try:
        with instrumentation.activate():
            result = command.execute(args, config)
            if objectives is not None:
                slo = evaluate_slos(active_metrics(), objectives)
    except (ReproError, OSError) as exc:
        return fail(exc, 1)
    if getattr(args, "json", False):
        payload = command.payload(args, result) if command.payload else result
        if slo is not None:
            payload[command.slo_key] = slo.to_dict()
        print(json.dumps(payload, indent=1))
    else:
        text = command.text(args, result)
        if text:
            print(text)
        if slo is not None:
            print(slo.format())
    try:
        for path in instrumentation.write():
            print(f"wrote {path}")
    except OSError as exc:
        return fail(f"cannot write instrumentation output: {exc}", 1)
    return 0 if command.ok(result) and (slo is None or slo.ok) else 1


# --------------------------------------------------------------------------
# Subcommands: configure, execute and text functions.
# --------------------------------------------------------------------------

def _list_experiments(args, config) -> dict:
    from .runner import REGISTRY

    return {
        "experiments": [
            {"id": key, "summary": REGISTRY.get(key).title}
            for key in REGISTRY.ids()
        ]
    }


def _list_text(args, payload) -> str:
    return "\n".join(
        ["available experiments:"]
        + [f"  {e['id']:12s} {e['summary']}" for e in payload["experiments"]]
    )


def _configure_run(args) -> tuple[list[str], RunnerConfig]:
    from .runner import REGISTRY

    ids = REGISTRY.ids()
    keys = list(ids) if args.experiment == "all" else [args.experiment]
    unknown = [k for k in keys if k not in ids]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(try: {', '.join(ids)})"
        )
    return keys, RunnerConfig(
        jobs=args.jobs,
        cache_enabled=args.cache,
        cache_dir=args.cache_dir,
        point_timeout_s=args.timeout,
    )


def _execute_run(args, config) -> tuple[RunnerConfig, int, int, dict]:
    from .runner import run_experiment

    keys, runner = config
    if args.clear_cache:
        removed = ResultCache(runner.cache_dir).clear()
        print(f"cleared {removed} cached result(s)", file=sys.stderr)
    attrs = {} if args.seed is None else {"seed": args.seed}
    hits = misses = 0
    # The schedcache line counts this run's work only, workers included
    # (the executor merges their registries into the active one).
    registry = active_metrics() or MetricsRegistry()
    with use_metrics(registry):
        for key in keys:
            with trace_span(
                f"experiment/{key}", category="experiment", **attrs
            ):
                run = run_experiment(key, runner=runner, seed=args.seed)
            # Print as each experiment finishes: `run all` takes minutes.
            print(run.format())
            print()
            hits += run.cache_hits
            misses += run.cache_misses
    schedcache = {
        name: int(registry.counters[f"schedcache.{name}"].value)
        if f"schedcache.{name}" in registry.counters else 0
        for name in ("schedule.hits", "schedule.misses", "timing.replays")
    }
    return runner, hits, misses, schedcache


def _run_text(args, result) -> str:
    runner, hits, misses, schedcache = result
    lines = []
    if args.seed is not None:
        lines.append(f"seed: {args.seed}")
    if runner.cache_enabled:
        lines.append(f"cache: {hits} hit(s), {misses} miss(es)")
    if any(schedcache.values()):
        replays = schedcache["timing.replays"]
        lines.append(
            f"schedcache: {schedcache['schedule.hits'] + replays} hit(s) "
            f"({replays} profile replay(s)), "
            f"{schedcache['schedule.misses']} compile(s)"
        )
    return "\n".join(lines)


def _entries(count: int) -> str:
    return "entry" if count == 1 else "entries"


def _cache_stats_text(args, stats) -> str:
    lines = [f"cache root: {stats['root']}"]
    if not stats["experiments"]:
        return "\n".join(lines + ["  (empty)"])
    for name, info in stats["experiments"].items():
        lines.append(
            f"  {name:18s} {info['entries']:4d} {_entries(info['entries'])}, "
            f"{info['bytes']} bytes"
        )
    lines.append(
        f"total: {stats['entries']} {_entries(stats['entries'])}, "
        f"{stats['bytes']} bytes"
    )
    return "\n".join(lines)


def _store_dir(args) -> Path:
    from .schedcache import STORE_NAMESPACE

    return Path(args.cache_dir) / STORE_NAMESPACE


def _clear_schedcache(args, config) -> int:
    import shutil

    removed = sum(1 for _ in _store_dir(args).glob("*.json"))
    shutil.rmtree(_store_dir(args), ignore_errors=True)
    return removed


def _configure_compile(args):
    collectives = [_parse_collective(name) for name in args.collective]
    shapes = [_parse_shape(spec) for spec in args.shape] or [
        registry.create("P", pimnet_sim_system()).shape
    ]
    return collectives or list(Collective), shapes


def _compile_schedcache(args, config):
    from .schedcache import ScheduleCache

    collectives, shapes = config
    cache = ScheduleCache(store=ResultCache(args.cache_dir))
    network = pimnet_sim_system().pimnet
    for shape in shapes:
        for pattern in collectives:
            cache.profile(pattern, shape, network)
    return cache.counters


#: How ``repro schedcache stats`` names a stored profile's structure.
_PROFILE_LABEL = "{collective}@{banks}x{chips}x{ranks}/root{root}/i{itemsize}"


def _schedcache_profiles(args, config) -> dict:
    entries = []
    for path in sorted(_store_dir(args).glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        # A field the entry lacks prints as "?".
        params = defaultdict(lambda: "?", entry.get("params", {}))
        entries.append({
            "structure": _PROFILE_LABEL.format_map(params),
            "bytes": path.stat().st_size,
        })
    return {"root": str(_store_dir(args)), "profiles": entries}


def _schedcache_text(args, payload) -> str:
    lines = [f"schedcache store: {payload['root']}"]
    if not payload["profiles"]:
        lines.append(
            "  (empty; `repro schedcache compile` precompiles profiles)"
        )
        return "\n".join(lines)
    for entry in payload["profiles"]:
        lines.append(f"  {entry['structure']:40s} {entry['bytes']} bytes")
    lines.append(f"total: {len(payload['profiles'])} stored profile(s)")
    return "\n".join(lines)


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


def _list_campaigns(args, config) -> dict:
    from .faults import CAMPAIGN_PRESETS

    return {
        "campaigns": [
            {
                "name": name,
                "trials": preset.trials,
                "description": preset.description,
            }
            for name, preset in sorted(CAMPAIGN_PRESETS.items())
        ]
    }


def _campaigns_text(args, payload) -> str:
    return "\n".join(
        ["available fault campaigns:"]
        + [
            f"  {entry['name']:16s} {entry['description']}"
            for entry in payload["campaigns"]
        ]
        + ["(or pass a JSON campaign file; see docs/FAULTS.md)"]
    )


def _overridden(config, **overrides):
    """``config`` with the overrides the options give (those not None)."""
    from dataclasses import replace

    return replace(
        config, **{k: v for k, v in overrides.items() if v is not None}
    )


def _configure_campaign(args):
    """A preset name, or a path to a JSON campaign spec, plus overrides."""
    from .config.faults import FaultCampaignConfig
    from .faults import CAMPAIGN_PRESETS

    if args.campaign in CAMPAIGN_PRESETS:
        campaign = CAMPAIGN_PRESETS[args.campaign]
    elif args.campaign.endswith(".json"):
        with open(args.campaign, encoding="utf-8") as handle:
            campaign = FaultCampaignConfig.from_dict(json.load(handle))
    else:
        raise ConfigurationError(
            f"unknown campaign {args.campaign!r} "
            f"(presets: {', '.join(sorted(CAMPAIGN_PRESETS))}; "
            "or pass a .json campaign file)"
        )
    payload = None if args.payload is None else parse_bytes(args.payload)
    return _overridden(
        campaign, seed=args.seed, trials=args.trials, payload_bytes=payload
    )


def _run_campaign(args, campaign) -> dict:
    from .faults import run_campaign

    summary = run_campaign(campaign, pimnet_sim_system()).summary()
    summary["seed"] = campaign.seed
    return summary


def _campaign_text(args, summary) -> str:
    return (
        f"campaign {summary['name']!r}: {summary['trials']} trials, "
        f"seed {summary['seed']}\n"
        f"  completed {summary['completed']}, "
        f"degraded {summary['degraded']}, aborted {summary['aborted']} "
        f"(completion rate {summary['completion_rate'] * 100:.1f}%)\n"
        f"  mean bandwidth "
        f"{summary['mean_bandwidth_bytes_per_s'] / 1e9:.4f} GB/s, "
        f"mean retries {summary['mean_retries']:.1f}\n"
        f"  latency p50 {summary['p50_latency_s'] * 1e6:.1f} us, "
        f"p99 {summary['p99_latency_s'] * 1e6:.1f} us, "
        f"p999 {summary['p999_latency_s'] * 1e6:.1f} us"
    )


def _configure_conformance(args):
    from .config.conformance import ConformanceConfig
    from .conformance import Mutation

    config = _overridden(
        ConformanceConfig(),
        seed=args.seed,
        latency_rel_tol=getattr(args, "rel_tol", None),
    )
    mutate = getattr(args, "mutate", None)
    return config, Mutation(mutate, seed=args.mutate_seed) if mutate else None


def _conformance_points(args, config) -> dict:
    from .conformance import enumerate_matrix

    return {"points": [point.params for point in enumerate_matrix(config[0])]}


def _points_text(args, payload) -> str:
    from .conformance import ConformancePoint

    points = payload["points"]
    return "\n".join(
        [f"conformance matrix ({len(points)} points):"]
        + [f"  {ConformancePoint.from_params(p).label()}" for p in points]
    )


def _run_conformance(args, config):
    from .conformance import (
        ConformancePoint,
        run_matrix,
        shrink_point,
        write_reproducer,
    )
    from .observability import use_metrics, use_tracer

    config, mutation = config
    report = run_matrix(
        config,
        mutation=mutation,
        cache_enabled=args.cache,
        cache_dir=args.cache_dir,
    )
    reproducers: list[str] = []
    # Shrinking replays candidate points; keep those replays out of the
    # run's trace and metrics, which describe the matrix alone.
    with use_tracer(None), use_metrics(None):
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
    return report, reproducers


def _conformance_payload(args, result) -> dict:
    report, reproducers = result
    return {
        "ok": report.ok,
        "points": len(report.reports),
        "failures": len(report.failures),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "reports": list(report.reports),
        "reproducers": reproducers,
    }


def _conformance_text(args, result) -> str:
    report, reproducers = result
    return "\n".join(
        [report.format()] + [f"wrote reproducer {p}" for p in reproducers]
    )


def _configure_shrink(args):
    """The reproducer's point, config and mutation."""
    from .config.conformance import ConformanceConfig
    from .conformance import ConformancePoint, Mutation, load_reproducer

    data = load_reproducer(args.reproducer)
    mutation = data.get("mutation")
    return (
        data,
        ConformancePoint.from_params(data["point"]),
        ConformanceConfig.from_dict(data.get("config") or {}),
        Mutation.from_dict(mutation) if mutation else None,
    )


def _shrink(args, config):
    """Replay the reproducer; re-minimize it if it still fails."""
    from .conformance import replay_reproducer, shrink_point, write_reproducer

    data, point, conformance, mutation = config
    if replay_reproducer(data)["ok"]:
        return point, None
    result = shrink_point(point, conformance, mutation=mutation)
    write_reproducer(
        args.out or args.reproducer, result, conformance, mutation
    )
    return point, result


def _shrink_text(args, outcome) -> str:
    point, result = outcome
    if result is None:
        return (
            f"{args.reproducer}: point {point.label()} "
            "no longer fails — nothing to shrink"
        )
    return (
        f"minimized to {result.point.label()} "
        f"({result.attempts} attempt(s)); wrote {args.out or args.reproducer}"
    )


def _configure_service(args):
    from .config.service import TenantQuotaConfig, default_service_config
    from .experiments.tenant_service_load import check_load

    check_load(args.tenants, args.requests, args.concurrency, args.timeout)
    return default_service_config(
        ("all_reduce", "reduce_scatter"),
        time_window_s=args.window,
        max_multiplexing=args.max_multiplexing,
        switch_time_s=args.switch,
        queue_limit=args.queue_limit,
        default_quota=TenantQuotaConfig(
            max_queued=args.max_queued, max_per_slot=args.max_per_slot
        ),
    )


def _serve(args, config):
    """Drive the multi-tenant collective service closed-loop."""
    from .experiments import tenant_service_load

    return tenant_service_load.run(
        tenants=args.tenants,
        requests_per_tenant=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        config=config,
        timeout_s=args.timeout,
    )


def _service_payload(args, result) -> dict:
    columns = ("tenant", "pattern", "submitted", "admitted", "rejected",
               "p50_s", "p99_s")
    return {
        "seed": args.seed,
        "params": result.params,
        "stats": result.stats,
        "tenants": [dict(zip(columns, row)) for row in result.tenant_rows],
        "slo": result.slo.to_dict(),
    }


def _service_text(args, result) -> str:
    from .experiments import tenant_service_load

    tables = tenant_service_load.build_tables(result)
    return f"seed: {args.seed}\n{format_tables(tables)}"


def _configure_fleet(args):
    """The fleet the options describe: ``fleet bench``'s trial config;
    ``fleet status`` only checks its options."""
    from .experiments import fleet_resilience
    from .experiments.tenant_service_load import check_load

    if args.fleet_command == "status":
        check_number(args.shards, "fleet shards", ConfigurationError,
                     integer=True, at_least=1)
        check_number(args.tenants, "tenants", ConfigurationError,
                     integer=True, at_least=0)
        for shard in args.kill_shard or ():
            check_number(shard, "kill shard", ConfigurationError,
                         integer=True, at_least=0, at_most=args.shards - 1)
        return None
    if len(args.kill_shard or ()) > 1:
        raise ConfigurationError(
            f"fleet {args.fleet_command} kills at most one shard, "
            f"got --kill-shard {args.kill_shard}"
        )
    check_load(args.tenants, args.requests, args.concurrency, args.timeout)
    return fleet_resilience.fleet_config(
        seed=args.seed,
        shards=args.shards,
        tenants=args.tenants,
        requests_per_tenant=args.requests,
        kill_shard=args.kill_shard[0] if args.kill_shard else None,
        kill_after=args.kill_after,
        outage_duration=args.outage_duration,
        max_reroutes=args.max_reroutes,
    )


def _fleet_bench(args, config) -> dict:
    """One deterministic fleet trial with a mid-run kill."""
    from .experiments import fleet_resilience

    value = fleet_resilience.run_trial(
        config,
        seed=args.seed,
        tenants=args.tenants,
        requests_per_tenant=args.requests,
        concurrency=args.concurrency,
        timeout_s=args.timeout,
    )
    params = {
        "shards": args.shards,
        "tenants": args.tenants,
        "requests_per_tenant": args.requests,
        "concurrency": args.concurrency,
        "max_reroutes": args.max_reroutes,
    }
    return {"seed": args.seed, "params": params, **value}


def _fleet_text(args, value) -> str:
    from .experiments import fleet_resilience

    tables = fleet_resilience.build_tables([value])
    return f"seed: {args.seed}\n{format_tables(tables)}"


def _fleet_status(args, config) -> dict:
    """The deterministic tenant->shard assignment and shard health."""
    from .experiments import fleet_resilience
    from .fleet import ShardHealth, fleet_assignment, shard_ranking

    tenants = fleet_resilience.tenant_names(args.tenants)
    assignment = fleet_assignment(tenants, args.shards)
    down = set(args.kill_shard or ())
    routes = {}
    for tenant in tenants:
        ranking = shard_ranking(tenant, args.shards)
        routes[tenant] = {
            "home": assignment[tenant],
            "ranking": list(ranking),
            "routed_to": next((i for i in ranking if i not in down), None),
        }
    return {
        "shards": {
            f"shard-{index}": {
                "health": (
                    ShardHealth.DOWN if index in down else ShardHealth.HEALTHY
                ).value,
                "tenants": sorted(
                    t for t, home in assignment.items() if home == index
                ),
            }
            for index in range(args.shards)
        },
        "tenants": routes,
    }


def _fleet_status_text(args, status) -> str:
    lines = [f"fleet: {args.shards} shard(s), {args.tenants} tenant(s)"]
    for name, shard in status["shards"].items():
        homed = ", ".join(shard["tenants"]) or "(none)"
        lines.append(f"  {name}  {shard['health']:8s} home to: {homed}")
    for tenant, route in status["tenants"].items():
        ranking = " > ".join(str(i) for i in route["ranking"])
        target = (
            f"shard-{route['routed_to']}"
            if route["routed_to"] is not None
            else "UNROUTABLE"
        )
        lines.append(f"  {tenant:8s} ranking [{ranking}] -> {target}")
    return "\n".join(lines)


def _verify(args, config):
    from .workloads import (
        WORKLOAD_KEYS, CaseReport, enumerate_cases, run_case,
        summarize_by_workload,
    )

    reports = []
    cases = enumerate_cases(
        keys=WORKLOAD_KEYS, shapes=((2, 2, 2),), scales=("S",)
    )
    for case in cases:
        try:
            reports.append(run_case(case))
        except Exception as error:  # noqa: BLE001 - report, don't crash
            reports.append(CaseReport(
                case, False, None, None, f"{type(error).__name__}: {error}"
            ))
    return summarize_by_workload(reports)


def _verify_text(args, rows) -> str:
    lines = [
        f"  {row['workload']:6s} "
        + ("ok" if row["status"] == "ok" else f"FAIL ({row['detail']})")
        for row in rows
    ]
    if all(row["status"] == "ok" for row in rows):
        lines.append("all workloads verified against single-node references")
    return "\n".join(lines)


def _info(args, config) -> dict:
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
            f"{tier}_bytes_per_s": (
                getattr(net, tier).bandwidth_per_channel_bytes_per_s
            )
            for tier in ("inter_bank", "inter_chip", "inter_rank")
        },
    }


def _info_text(args, payload) -> str:
    machine = payload["machine"]
    return (
        f"repro {payload['version']} — PIMnet (HPCA 2025) reproduction\n"
        f"default machine: {machine['num_dpus']} DPUs "
        f"({machine['banks_per_chip']} banks x "
        f"{machine['chips_per_rank']} chips "
        f"x {machine['ranks_per_channel']} ranks), "
        f"{machine['dpu_frequency_hz'] / 1e6:.0f} MHz DPUs\n"
        f"backends: {', '.join(payload['backends'])}\n"
        "tiers: "
        + ", ".join(
            f"{key.removesuffix('_bytes_per_s').replace('_', '-')} "
            f"{value / 1e9:.2f} GB/s"
            for key, value in payload["tiers"].items()
        )
    )


def _trace(args, config) -> str:
    """Time one collective under the active tracer; the span tree."""
    pattern, payload_bytes = config
    machine = pimnet_sim_system()
    tracer = active_tracer()
    with tracer.span(
        f"trace/{pattern.value}",
        category="cli",
        backend=args.backend,
        payload_bytes=payload_bytes,
    ) as root:
        backend = registry.create(args.backend, machine)
        breakdown = backend.timing(CollectiveRequest(pattern, payload_bytes))
        root.set_sim_window(0.0, breakdown.total_s)
        # The Algorithm 1 phase timeline covers PIMnet AllReduce whose
        # payload splits evenly into 8-byte elements across the DPUs.
        if (
            args.backend == "P"
            and pattern is Collective.ALL_REDUCE
            and payload_bytes % (8 * machine.system.banks_per_channel) == 0
        ):
            from .core.timeline import allreduce_timeline

            allreduce_timeline(payload_bytes, machine)
        else:
            _record_breakdown_spans(tracer, breakdown)
    return format_span_tree(tracer)


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


# --------------------------------------------------------------------------
# The parser.
# --------------------------------------------------------------------------

def _int(default: int | None, help_text: str) -> dict[str, Any]:
    """``add_argument`` keywords of an integer option; its help names a
    default that is not None."""
    if default is not None:
        help_text += f" (default: {default})"
    return dict(type=int, default=default, metavar="N", help=help_text)


#: Options of ``repro service bench`` and its alias ``repro serve``.
_SERVICE_ARGUMENTS = {
    "--tenants": _int(4, "number of synthetic tenants"),
    "--requests": _int(512, "requests per tenant"),
    "--concurrency": _int(8, "closed-loop outstanding requests per tenant"),
    "--max-multiplexing": _int(
        2, "distinct schedule structures per slot occurrence"
    ),
    "--queue-limit": _int(64, "total admission queue bound"),
    "--max-queued": _int(8, "per-tenant queued-request quota"),
    "--max-per-slot": _int(4, "per-tenant admissions per slot occurrence"),
    "--window": dict(
        type=float, default=500e-6, metavar="SECONDS",
        help="time window of each slot (default: 500us)",
    ),
    "--switch": dict(
        type=float, default=20e-6, metavar="SECONDS",
        help="switch (dead) time between slots (default: 20us)",
    ),
}

#: Options every ``repro fleet`` subcommand takes.
_FLEET_ARGUMENTS = {
    "--shards": _int(3, "number of service shards"),
    "--tenants": _int(5, "number of synthetic tenants"),
    "--kill-shard": dict(
        type=int, action="append", default=None, metavar="I",
        help="shard to take down (status: mark down, repeatable; bench: "
        "kill mid-run; default for bench: the busiest shard)",
    ),
}

#: Options of ``repro fleet bench`` and its alias ``repro fleet serve``.
_FLEET_BENCH_ARGUMENTS = {
    **_FLEET_ARGUMENTS,
    "--requests": _int(48, "requests per tenant"),
    "--concurrency": _int(4, "closed-loop outstanding requests per tenant"),
    "--kill-after": _int(
        None, "fleet submissions before the kill, at most tenants x "
        "requests (default: a third of the total)"
    ),
    "--outage-duration": _int(
        None, "submissions the shard stays down, 0 for the rest of the "
        "run (default: a third of the total)"
    ),
    "--max-reroutes": _int(2, "extra shards to try after the first choice"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PIMnet (HPCA 2025) evaluation.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "list", "enumerate experiments", "json",
                execute=_list_experiments, text=_list_text)
    _subcommand(
        sub, "run", "run one experiment (or 'all')",
        "cache", "cache_dir", "trace", "metrics",
        ("timeout", dict(
            default=None, help="per-point timeout when running in parallel"
        )),
        ("seed", dict(
            help="override the 'seed' param of every seeded sweep point; "
            "recorded in the run output and trace metadata"
        )),
        arguments={
            "experiment": dict(help="experiment id, e.g. fig10"),
            "--jobs -j": dict(
                type=int, default=1, metavar="N",
                help="worker processes for sweep points (default: 1, serial)",
            ),
            "--clear-cache": dict(
                action="store_true",
                help="drop all cached results before running",
            ),
        },
        execute=_execute_run, text=_run_text, configure=_configure_run,
    )

    cache = _group(sub, "cache", "inspect or clear the result cache")
    _subcommand(
        cache, "stats", "show cached entries per experiment",
        "json", "cache_dir",
        execute=lambda args, config: ResultCache(args.cache_dir).stats(),
        text=_cache_stats_text,
    )
    _subcommand(
        cache, "clear", "remove every cached result", "cache_dir",
        execute=lambda args, config: ResultCache(args.cache_dir).clear(),
        text=lambda args, removed: f"cleared {removed} cached result(s)",
    )

    sched = _group(
        sub, "schedcache",
        "inspect, clear, or precompile the schedule-compilation cache",
    )
    _subcommand(
        sched, "stats", "show stored timing profiles", "json", "cache_dir",
        execute=_schedcache_profiles, text=_schedcache_text,
    )
    _subcommand(
        sched, "clear", "remove every stored timing profile", "cache_dir",
        execute=_clear_schedcache,
        text=lambda args, removed: f"cleared {removed} stored profile(s)",
    )
    _subcommand(
        sched, "compile", "precompile timing profiles into the on-disk store",
        "cache_dir",
        arguments={
            "--collective": dict(
                action="append", metavar="NAME", default=[],
                help="collective to precompile (repeatable; default: all)",
            ),
            "--shape": dict(
                action="append", metavar="BxCxR", default=[],
                help="banks x chips x ranks structure (repeatable; "
                "default: the default machine's shape)",
            ),
        },
        execute=_compile_schedcache, configure=_configure_compile,
        text=lambda args, counters: (
            f"compiled {counters.profile_misses} profile(s) "
            f"({counters.profile_disk_hits} already stored) "
            f"into {_store_dir(args)}"
        ),
    )

    _subcommand(sub, "info", "show machine/backend summary", "json",
                execute=_info, text=_info_text)
    _subcommand(
        sub, "verify",
        "check every workload against its single-node reference",
        execute=_verify, text=_verify_text,
        ok=lambda rows: all(row["status"] == "ok" for row in rows),
    )

    _subcommand(
        sub, "trace", "trace one collective and export spans/metrics",
        "metrics",
        arguments={
            "collective": dict(
                help="pattern to trace, e.g. allreduce, alltoall, broadcast"
            ),
            "--payload": dict(
                default="1MB",
                help="per-DPU payload size, e.g. 32KB or 1MB (binary units)",
            ),
            "--backend": dict(
                default="P",
                help="backend key (default P; see 'repro info' for the list)",
            ),
            "--out": dict(
                metavar="PATH", default=None,
                help="write a Chrome trace-event JSON (Perfetto-loadable) "
                "to PATH",
            ),
            "--clock": dict(
                choices=TRACE_CLOCKS, default="auto",
                help="time axis for the Chrome trace (default: auto)",
            ),
            "--quiet": dict(
                action="store_true",
                help="suppress the span-tree dump on stdout",
            ),
        },
        execute=_trace, traced=True,
        configure=lambda args: (
            _parse_collective(args.collective), parse_bytes(args.payload)
        ),
        text=lambda args, tree: None if args.quiet else tree,
    )

    faults = _group(
        sub, "faults", "run deterministic fault-injection campaigns"
    )
    _subcommand(
        faults, "list", "enumerate the named campaign presets", "json",
        execute=_list_campaigns, text=_campaigns_text,
    )
    _subcommand(
        faults, "run", "run one campaign (preset name or JSON spec file)",
        "metrics", "slo", "json",
        ("seed", dict(help="override the campaign seed")),
        arguments={
            "campaign": dict(
                help="preset name (see 'repro faults list') or path to a "
                ".json campaign spec (format: docs/FAULTS.md)"
            ),
            "--trials": _int(None, "override the campaign trial count"),
            "--payload": dict(
                default=None, metavar="SIZE",
                help="override the payload, e.g. 64KB or 1MB (binary units)",
            ),
        },
        execute=_run_campaign, text=_campaign_text,
        configure=_configure_campaign,
    )

    conformance = _group(
        sub, "conformance",
        "differentially validate the analytic, cycle-level, and "
        "functional collective models",
    )
    _subcommand(
        conformance, "run", "run the full conformance matrix",
        "cache", "cache_dir", "metrics", "json",
        ("seed", dict(help="override the payload/mutation RNG seed")),
        arguments={
            "--rel-tol": dict(
                type=float, default=None, metavar="F",
                help="override the analytic-vs-NoC relative latency "
                "tolerance",
            ),
            "--mutate": dict(
                default=None, metavar="MODE",
                help="inject one seeded defect per point "
                "(offset, drop-transfer, drop-flit, stall) to prove the "
                "engine catches divergence; disables the cache",
            ),
            "--mutate-seed": _int(0, "seed of the mutation target RNG"),
            "--reproducer-dir": dict(
                metavar="PATH", default=".",
                help="where to write JSON reproducers for failing points "
                "(default: current directory)",
            ),
        },
        execute=_run_conformance, text=_conformance_text,
        configure=_configure_conformance, payload=_conformance_payload,
        ok=lambda result: result[0].ok,
    )
    _subcommand(
        conformance, "list", "enumerate the matrix points", "json",
        ("seed", dict(help=argparse.SUPPRESS)),
        execute=_conformance_points, text=_points_text,
        configure=_configure_conformance,
    )
    _subcommand(
        conformance, "shrink", "replay and re-minimize a JSON reproducer",
        arguments={
            "reproducer": dict(
                help="path to a reproducer written by 'repro conformance run'"
            ),
            "--out": dict(
                metavar="PATH", default=None,
                help="where to write the minimized reproducer "
                "(default: overwrite the input)",
            ),
        },
        execute=_shrink, text=_shrink_text, configure=_configure_shrink,
        ok=lambda outcome: outcome[1] is None,
    )

    service = _group(sub, "service", "multi-tenant async collective service")
    # `repro serve` is the short spelling of `repro service bench`.
    for parent, name, help_text in (
        (service, "bench",
         "closed-loop tenant load through the time-slot scheduler"),
        (sub, "serve", "alias for 'service bench'"),
    ):
        _subcommand(
            parent, name, help_text,
            "timeout", "json", "trace", "metrics", "slo",
            ("seed", dict(default=11, help="payload-mix seed (default: 11)")),
            arguments=_SERVICE_ARGUMENTS,
            name="service bench", execute=_serve, text=_service_text,
            configure=_configure_service, payload=_service_payload,
            ok=lambda result: result.slo.ok, slo_key="slo_file",
        )

    fleet = _group(
        sub, "fleet", "sharded fleet: N service shards behind a retry router"
    )
    # `repro fleet serve` is the long-lived spelling of `fleet bench`.
    for name, help_text in (
        ("bench",
         "closed-loop fleet load with an optional mid-run shard kill"),
        ("serve", "alias for 'fleet bench'"),
    ):
        _subcommand(
            fleet, name, help_text,
            "json", "timeout", "trace", "metrics", "slo",
            ("seed", dict(
                default=23,
                help="payload-mix and fault-sampling seed (default: 23)",
            )),
            arguments=_FLEET_BENCH_ARGUMENTS,
            execute=_fleet_bench, text=_fleet_text, configure=_configure_fleet,
            ok=lambda value: value["slo"]["ok"], slo_key="slo_file",
        )
    _subcommand(
        fleet, "status",
        "show the deterministic tenant->shard assignment and health",
        "json",
        arguments=_FLEET_ARGUMENTS,
        execute=_fleet_status, text=_fleet_status_text,
        configure=_configure_fleet,
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args.handler, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro list | head -1``).  Point stdout
        # at devnull so the interpreter's exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
