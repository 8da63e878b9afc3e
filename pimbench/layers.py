"""Per-layer spans for the benchmark, wrapped around ``repro`` from outside.

``TARGETS`` is the one table of ``(layer, public entry point)`` pairs.
:func:`installed` wraps every target for the duration of a ``with``
block and puts the originals back afterwards; nothing under ``src/``
knows it is being measured.  A module-level function is replaced at
every binding of the same object in a ``repro`` module or a module of
this benchmark, so ``from x import f`` call sites are caught too; a
method is replaced on the class that defines it.

Each wrapped call records one span: id, target, start, end, parent and
request id.  Parent and request id travel in a
:class:`contextvars.ContextVar`, so they stay right across asyncio tasks:
a span opened where no span is current starts a new request, and every
span below it shares that request id.  ``CollectiveService.start`` runs
in a fresh context marked as belonging to no request, so the batched
scheduler work its task does is attributed to no single request.

The repository's own :class:`repro.observability.Tracer` is not used: it
keeps one span stack per tracer, which interleaving asyncio tasks would
corrupt, and turning it on switches the library onto its instrumented
code paths, which would change what is being measured.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from common import nearest_rank

_BENCH_DIR = str(Path(__file__).resolve().parent)

#: Path of the one target that stands for every registered backend's
#: ``timing`` method (resolved through ``repro.collectives.registry``).
BACKEND_TIMING = "repro.collectives:registry.*.timing"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point of one layer."""

    layer: str
    #: ``module:function``, ``module:Class.method`` or BACKEND_TIMING.
    path: str
    #: ``hook(tracer, result, args)`` after each successful call, for
    #: counts that only the call's result knows.
    hook: Callable[["Tracer", Any, tuple], None] | None = None
    #: Remember each distinct ``self`` the method is called on.
    collect: bool = False
    #: Run the call in a fresh context that belongs to no request, and
    #: record no span for it (used for scheduler start-up).
    detached: bool = False


def _noc_run(tracer: "Tracer", stats: Any, args: tuple) -> None:
    counts = tracer.counts
    counts["noc.flits"] += stats.flits_delivered
    counts["noc.events"] += stats.events_processed
    counts["noc.sim_cycles"] += stats.cycles
    counts["noc.idle_cycles_skipped"] += stats.idle_cycles_skipped
    counts["noc.arbitration_conflicts"] += stats.arbitration_conflicts
    counts["noc.latency_sum"] += sum(stats.per_message_latency.values())
    counts["noc.latency_messages"] += len(stats.per_message_latency)


def _fleet_submit(tracer: "Tracer", response: Any, args: tuple) -> None:
    counts = tracer.counts
    counts[f"fleet.{response.outcome.value}"] += 1
    counts["fleet.attempts"] += len(response.attempts)
    if response.admitted:
        tracer.samples["fleet.sim_latency_us"].append(
            response.latency_s * 1e6
        )


def _run_experiment(tracer: "Tracer", run: Any, args: tuple) -> None:
    tracer.counts["runner.points"] += run.points


def _cache_get(tracer: "Tracer", result: Any, args: tuple) -> None:
    hit, _ = result
    tracer.counts["runner.cache_hits" if hit else "runner.cache_misses"] += 1


def _run_point(tracer: "Tracer", report: Any, args: tuple) -> None:
    if not report["ok"]:
        tracer.counts["conformance.failures"] += 1


TARGETS: tuple[Target, ...] = (
    Target("noc", "repro.noc.simulator:NocSimulator.run", hook=_noc_run),
    Target("noc", "repro.noc.workload:messages_from_schedule"),
    Target("core", "repro.core.schedule:build_schedule"),
    Target("core", "repro.core.schedule:schedule_timing"),
    Target("core", "repro.core.schedule:chain_timing"),
    Target("core", "repro.core.schedule:execute_schedule"),
    Target("core", "repro.core.validate:validate_schedule"),
    Target("schedcache", "repro.schedcache.cache:ScheduleCache.build", collect=True),
    Target("schedcache", "repro.schedcache.cache:ScheduleCache.timing", collect=True),
    Target("schedcache", "repro.schedcache.cache:ScheduleCache.profile", collect=True),
    Target("schedcache", "repro.schedcache.cache:ScheduleCache.calibration", collect=True),
    Target("collectives", BACKEND_TIMING),
    Target("collectives", "repro.collectives.functional:execute"),
    Target("service", "repro.service.service:CollectiveService.submit"),
    Target("service", "repro.service.service:CollectiveService.start",
           collect=True, detached=True),
    Target("service", "repro.service.admission:AdmissionQueue.select"),
    Target("service", "repro.service.admission:AdmissionQueue.try_enqueue"),
    Target("fleet", "repro.fleet.router:FleetRouter.submit", hook=_fleet_submit),
    Target("fleet", "repro.fleet.router:shard_ranking"),
    Target("fleet", "repro.fleet.router:FleetRouter.route_order"),
    Target("runner", "repro.runner.executor:run_experiment", hook=_run_experiment),
    Target("runner", "repro.runner.cache:cache_key"),
    Target("runner", "repro.runner.cache:ResultCache.get", hook=_cache_get),
    Target("runner", "repro.runner.cache:ResultCache.put"),
    Target("faults", "repro.faults.model:sample_fault_set"),
    Target("conformance", "repro.conformance.engine:run_point", hook=_run_point),
    Target("workloads", "repro.workloads.differential:run_case"),
)

#: The current span as ``(span id, request id)``; ``None`` outside any
#: span, ``_DETACHED`` inside work that belongs to no request.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "pimbench_span", default=None
)
_DETACHED = (None, None)


# --------------------------------------------------------------------------
# Finding and replacing bindings.
# --------------------------------------------------------------------------

def _scanned_modules() -> list:
    """``repro`` modules and this benchmark's own modules."""
    found = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        source = getattr(module, "__file__", None) or ""
        if name == "repro" or name.startswith("repro.") or source.startswith(
            _BENCH_DIR
        ):
            found.append(module)
    return found


def _backend_classes() -> list[type]:
    """Every class that defines the ``timing`` a registered backend uses."""
    from repro.collectives import registry
    from repro.config.presets import pimnet_sim_system

    machine = pimnet_sim_system()
    classes: list[type] = []
    for key in registry.keys():
        backend_type = type(registry.create(key, machine))
        owner = next(c for c in backend_type.__mro__ if "timing" in vars(c))
        if owner not in classes:
            classes.append(owner)
    return classes


def bindings(path: str) -> list[tuple[Any, str, Any]]:
    """Every ``(owner, attribute, original)`` that ``path`` names.

    Raises :class:`LookupError` when the path no longer names a function
    defined where the table says, so a renamed entry point fails loudly
    instead of silently going untraced.
    """
    if path == BACKEND_TIMING:
        return [(cls, "timing", vars(cls)["timing"]) for cls in _backend_classes()]
    module_name, _, qualname = path.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        cls = getattr(module, class_name)
        if attr not in vars(cls):
            raise LookupError(f"{path}: {class_name} does not define {attr}")
        return [(cls, attr, vars(cls)[attr])]
    original = getattr(module, qualname, None)
    if not inspect.isfunction(original):
        raise LookupError(f"{path} is not a module-level function")
    return [
        (scanned, name, value)
        for scanned in _scanned_modules()
        for name, value in list(vars(scanned).items())
        if value is original
    ]


@contextmanager
def _patched(replacements: list[tuple[Any, str, Any, Any]]) -> Iterator[None]:
    """Apply ``(owner, attr, original, replacement)`` and always undo."""
    applied = []
    try:
        for owner, attr, original, replacement in replacements:
            setattr(owner, attr, replacement)
            applied.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(applied):
            setattr(owner, attr, original)
        # A module first imported inside the block bound the replacements
        # by name; point those bindings back at the originals as well.
        originals = {id(new): old for _, _, old, new in replacements}
        for module in _scanned_modules():
            for name, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, name, originals[id(value)])


# --------------------------------------------------------------------------
# Span recording.
# --------------------------------------------------------------------------

#: Column order of a recorded span (and of ``trace.json`` rows).
SPAN_COLUMNS = ("id", "target", "start_s", "end_s", "parent", "request", "async")


class Tracer:
    """In-memory span store plus the counts and instances hooks gather."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        #: ``(id, target index, start, end, parent id, request id, async)``
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        #: target path -> {id(self): self} for ``collect`` targets.
        self.instances: defaultdict[str, dict[int, Any]] = defaultdict(dict)
        #: id(self) -> its ``counters`` when first seen, so counts of an
        #: object that outlives the traced block cover the block alone.
        self.baselines: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()

    def wrap(self, index: int, original: Callable) -> Callable:
        target = self.targets[index]
        spans, ids, hook = self.spans, self._ids, target.hook
        instances = self.instances[target.path] if target.collect else None
        baselines = self.baselines
        tracer = self

        def collect(obj: Any) -> None:
            if id(obj) not in instances:
                instances[id(obj)] = obj
                if hasattr(obj, "counters"):
                    baselines[id(obj)] = obj.counters.as_dict()

        if target.detached:
            @functools.wraps(original)
            def detached(*args, **kwargs):
                if instances is not None:
                    collect(args[0])
                return contextvars.Context().run(
                    _call_detached, original, args, kwargs
                )
            return detached

        def enter(args: tuple) -> tuple[int, int | None, int | None, contextvars.Token]:
            if instances is not None:
                collect(args[0])
            current = _CURRENT.get()
            span_id = next(ids)
            parent, request = (None, span_id) if current is None else current
            return span_id, parent, request, _CURRENT.set((span_id, request))

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def traced_async(*args, **kwargs):
                span_id, parent, request, token = enter(args)
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append((span_id, index, start, end, parent, request, True))
                if hook is not None:
                    hook(tracer, result, args)
                return result
            return traced_async

        @functools.wraps(original)
        def traced_sync(*args, **kwargs):
            span_id, parent, request, token = enter(args)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append((span_id, index, start, end, parent, request, False))
            if hook is not None:
                hook(tracer, result, args)
            return result
        return traced_sync

    def write(self, path: Path) -> None:
        """Dump every span (times relative to tracer creation) as JSON."""
        own = self_times(self.spans)
        rows = [
            [sid, index, start - self.origin, end - self.origin, parent,
             request, is_async, own.get(sid)]
            for sid, index, start, end, parent, request, is_async in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "targets": [[t.layer, t.path] for t in self.targets],
            "columns": [*SPAN_COLUMNS, "self_s"],
            "spans": rows,
        }))


def _call_detached(original: Callable, args: tuple, kwargs: dict) -> Any:
    _CURRENT.set(_DETACHED)
    return original(*args, **kwargs)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target of ``tracer`` for the duration of the block."""
    replacements = []
    for index, target in enumerate(tracer.targets):
        wrappers: dict[int, Callable] = {}
        for owner, attr, original in bindings(target.path):
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(index, original)
            replacements.append((owner, attr, original, wrappers[id(original)]))
    with _patched(replacements):
        yield tracer


def _busy_double(original: Callable) -> Callable:
    @functools.wraps(original)
    def doubled(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        until = time.perf_counter() + (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass
        return result
    return doubled


@contextmanager
def doubled(path: str) -> Iterator[None]:
    """Make every call of one (synchronous) target cost twice its time.

    The call runs once, then the wrapper spins for as long again, so the
    results are untouched; the benchmark's own tests use it to check that
    a 2x slowdown of the dominant layer is flagged.
    """
    found = bindings(path)
    slow = {id(original): _busy_double(original) for _, _, original in found}
    with _patched([
        (owner, attr, original, slow[id(original)])
        for owner, attr, original in found
    ]):
        yield


# --------------------------------------------------------------------------
# From spans to per-layer metrics.
# --------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """span id -> self time, for synchronous spans only.

    A synchronous span's self time is its duration minus the part of it
    its synchronous children cover.  Asynchronous spans measure waiting,
    not work — other tasks run while they are open — so they have no
    self time and do not reduce their parent's.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _, is_async in spans:
        if parent is not None and not is_async:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _, start, end, _, _, is_async in spans
        if not is_async
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, wall_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """Every per-layer metric, from one traced pass of ``wall_s`` seconds
    whose untraced twin took ``untraced_wall_s``.  Layers that did no
    work report zeros."""
    own = self_times(tracer.spans)
    paths = [target.path for target in tracer.targets]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    waits: defaultdict[str, list[float]] = defaultdict(list)
    layer_self: Counter = Counter()
    for sid, index, start, end, _, _, is_async in tracer.spans:
        path = paths[index]
        calls[path] += 1
        if is_async:
            waits[path].append(end - start)
        else:
            self_s[path] += own[sid]
            layer_self[tracer.targets[index].layer] += own[sid]

    def of(*suffixes: str) -> tuple[str, ...]:
        return tuple(p for p in paths if p.endswith(suffixes))

    def total(counter: Counter, *suffixes: str) -> float:
        return sum(counter[p] for p in of(*suffixes))

    counts = tracer.counts
    caches = [
        cache
        for path in of("ScheduleCache.build", "ScheduleCache.timing",
                       "ScheduleCache.profile", "ScheduleCache.calibration")
        for cache in tracer.instances[path].values()
    ]
    cache_counters = Counter()
    for cache in {id(c): c for c in caches}.values():
        cache_counters.update(cache.counters.as_dict())
        cache_counters.subtract(tracer.baselines[id(cache)])
    services = [
        service.stats()
        for service in tracer.instances[of("CollectiveService.start")[0]].values()
    ]
    service_waits = waits[of("CollectiveService.submit")[0]]
    flits = counts["noc.flits"]
    fleet_submits = total(calls, "FleetRouter.submit")
    served = counts["fleet.admitted"] + counts["fleet.rerouted"]
    fleet_latency = tracer.samples["fleet.sim_latency_us"]
    hits, misses = counts["runner.cache_hits"], counts["runner.cache_misses"]
    replays = cache_counters["timing_replays"]
    synchronous_self = sum(own.values())
    return {
        "noc.runs": total(calls, "NocSimulator.run"),
        "noc.self_s": layer_self["noc"],
        "noc.flits": flits,
        "noc.events": counts["noc.events"],
        "noc.sim_cycles": counts["noc.sim_cycles"],
        "noc.idle_cycles_skipped": counts["noc.idle_cycles_skipped"],
        "noc.arbitration_conflicts": counts["noc.arbitration_conflicts"],
        "noc.us_per_flit": _ratio(total(self_s, "NocSimulator.run") * 1e6, flits),
        "noc.lowering_self_s": total(self_s, ":messages_from_schedule"),
        "noc.sim_mean_latency_cycles": _ratio(
            counts["noc.latency_sum"], counts["noc.latency_messages"]
        ),
        "core.build_calls": total(calls, ":build_schedule"),
        "core.build_self_s": total(self_s, ":build_schedule"),
        "core.timing_calls": total(calls, ":schedule_timing", ":chain_timing"),
        "core.timing_self_s": total(self_s, ":schedule_timing", ":chain_timing"),
        "core.execute_self_s": total(self_s, ":execute_schedule"),
        "core.validate_self_s": total(self_s, ":validate_schedule"),
        "schedcache.self_s": layer_self["schedcache"],
        "schedcache.schedule_hits": cache_counters["schedule_hits"],
        "schedcache.schedule_misses": cache_counters["schedule_misses"],
        "schedcache.timing_replays": replays,
        "schedcache.timing_fallbacks": cache_counters["timing_fallbacks"],
        "schedcache.replay_ratio": _ratio(
            replays, total(calls, "ScheduleCache.timing")
        ),
        "collectives.timing_calls": total(calls, BACKEND_TIMING),
        "collectives.timing_self_s": total(self_s, BACKEND_TIMING),
        "collectives.functional_self_s": total(self_s, "functional:execute"),
        "service.submits": len(service_waits),
        "service.wait_p50_s": nearest_rank(service_waits, 50) if service_waits else 0.0,
        "service.wait_p99_s": nearest_rank(service_waits, 99) if service_waits else 0.0,
        "service.admission_self_s": total(
            self_s, "AdmissionQueue.select", "AdmissionQueue.try_enqueue"
        ),
        "service.occurrences": sum(s["occurrences"] for s in services),
        "service.replayed": sum(s["replayed"] for s in services),
        "service.fallbacks": sum(s["fallbacks"] for s in services),
        "service.peak_queue_depth": max(
            (s["peak_queue_depth"] for s in services), default=0
        ),
        "fleet.submits": fleet_submits,
        "fleet.route_self_s": total(
            self_s, ":shard_ranking", "FleetRouter.route_order"
        ),
        "fleet.rerouted": counts["fleet.rerouted"],
        "fleet.failed": counts["fleet.failed"],
        "fleet.attempts_per_submit": _ratio(counts["fleet.attempts"], fleet_submits),
        "fleet.useful_ratio": _ratio(served, counts["fleet.attempts"]),
        "fleet.sim_p99_us": nearest_rank(fleet_latency, 99) if fleet_latency else 0.0,
        "fleet.unserved_frac": _ratio(
            counts["fleet.rejected"] + counts["fleet.failed"], fleet_submits
        ),
        "runner.self_s": layer_self["runner"],
        "runner.experiments": total(calls, ":run_experiment"),
        "runner.points": counts["runner.points"],
        "runner.cache_hits": hits,
        "runner.cache_misses": misses,
        "runner.hit_ratio": _ratio(hits, hits + misses),
        "runner.key_self_s": total(self_s, ":cache_key"),
        "runner.cache_get_s": total(self_s, "ResultCache.get"),
        "runner.cache_put_s": total(self_s, "ResultCache.put"),
        "faults.sample_calls": total(calls, ":sample_fault_set"),
        "faults.sample_self_s": total(self_s, ":sample_fault_set"),
        "conformance.cells": total(calls, ":run_point"),
        "conformance.self_s": layer_self["conformance"],
        "conformance.failures": counts["conformance.failures"],
        "workloads.cells": total(calls, ":run_case"),
        "workloads.self_s": layer_self["workloads"],
        "trace.spans": len(tracer.spans),
        "trace.wall_s": wall_s,
        "trace.overhead_frac": _ratio(wall_s, untraced_wall_s) - 1.0,
        "unattributed.self_s": wall_s - synchronous_self,
    }
