"""The differential engine: one point, three models, four checks.

For every :class:`~repro.conformance.matrix.ConformancePoint` the engine
builds the static schedule and holds the three independent
implementations against each other:

* **validators** — ``core.validate.validate_schedule`` must pass on the
  generated schedule (bounds, tier locality, contention freedom, write
  races);
* **functional** — replaying the schedule on random int64 buffers
  (``core.schedule.execute_schedule``) must match the numpy reference
  semantics (``collectives.functional.execute``) bit-exactly;
* **latency** — the flit-level simulation of the schedule must land
  within the configured band around the analytic link-load time
  (``core.schedule.schedule_timing``), both in cycles (1 cycle = 1 ns);
* **conservation** — the simulator must deliver exactly the flits and
  messages the schedule implies.

Disagreement is *data*: the point report marks the failing check and
the matrix run keeps going.  Only infeasible points (payload does not
divide the shape) raise :class:`ConformanceError` — the shrinker uses
that distinction to skip invalid candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..collectives import functional
from ..collectives.patterns import Collective
from ..config.conformance import ConformanceConfig
from ..config.network import PimnetNetworkConfig
from ..config.runner import DEFAULT_CACHE_DIR
from ..config.units import NOC_CYCLE_S
from ..core.schedule import (
    CommSchedule,
    execute_schedule,
    owned_range,
    schedule_timing,
)
from ..core.validate import validate_schedule
from ..errors import CollectiveError, ConformanceError, ScheduleError
from ..noc.network import NocNetwork
from ..noc.simulator import NocSimulator
from ..noc.workload import messages_from_schedule
from ..observability import metric_counter, trace_span
from ..schedcache import cached_build_schedule
from .matrix import ConformancePoint, enumerate_matrix
from .mutate import (
    SCHEDULE_MODES,
    Mutation,
    mutate_messages,
    mutate_schedule,
)

#: Check names in report order.
CHECKS = ("validators", "functional", "latency", "conservation")


def _point_buffers(
    point: ConformancePoint, config: ConformanceConfig
) -> list[np.ndarray]:
    """Deterministic per-DPU int64 payloads for the functional check.

    The stream is derived from the config seed *and* the full point
    identity, so shrunk candidates get fresh data (a mutation cannot
    hide behind a buffer coincidence carried over from the parent
    point).
    """
    num_elements = point.num_elements(config.itemsize)
    rng = np.random.default_rng(
        [
            config.seed,
            list(Collective).index(point.pattern),
            point.banks,
            point.chips,
            point.ranks,
            num_elements,
        ]
    )
    return [
        rng.integers(-(2**31), 2**31, num_elements, dtype=np.int64)
        for _ in range(point.num_dpus)
    ]


def _functional_detail(
    point: ConformancePoint,
    schedule: CommSchedule,
    config: ConformanceConfig,
) -> str:
    """Empty string when schedule replay matches the reference
    bit-exactly; otherwise a description of the first divergence."""
    buffers = _point_buffers(point, config)
    request = point.request(config.itemsize)
    out = execute_schedule(schedule, buffers)
    ref = functional.execute(request, buffers)
    pattern = point.pattern
    shape = point.shape
    num_elements = point.num_elements(config.itemsize)

    def mismatch(dpu: int, got: np.ndarray, want: np.ndarray) -> str:
        bad = np.flatnonzero(got != want)
        where = int(bad[0]) if bad.size else -1
        return (
            f"dpu {dpu}: {bad.size}/{want.size} elements differ "
            f"(first at index {where})"
        )

    if pattern is Collective.REDUCE_SCATTER:
        for dpu in range(shape.num_dpus):
            off, length = owned_range(shape, num_elements, dpu)
            got = out[dpu][off : off + length]
            if not np.array_equal(got, ref[dpu]):
                return mismatch(dpu, got, ref[dpu])
        return ""
    if pattern in (Collective.REDUCE, Collective.GATHER):
        root = request.root
        if not np.array_equal(out[root], ref[root]):
            return mismatch(root, out[root], ref[root])
        return ""
    for dpu in range(shape.num_dpus):
        if not np.array_equal(out[dpu], ref[dpu]):
            return mismatch(dpu, out[dpu], ref[dpu])
    return ""


def run_point(
    point: ConformancePoint,
    config: ConformanceConfig | None = None,
    network: PimnetNetworkConfig | None = None,
    mutation: Mutation | None = None,
) -> dict:
    """Run all checks on one point; returns a JSON-ready report.

    Raises :class:`ConformanceError` only for *infeasible* points
    (payload/shape divisibility) or inapplicable mutations; model
    disagreement is reported in the returned dict, never raised.
    """
    config = config or ConformanceConfig()
    network = network or PimnetNetworkConfig()
    label = point.label()
    with trace_span(
        "conformance/point",
        category="conformance",
        point=label,
        mutation=mutation.mode if mutation else "",
    ) as span:
        num_elements = point.num_elements(config.itemsize)
        request = point.request(config.itemsize)
        try:
            request.validate_for(point.num_dpus)
            # Served from the schedule-compilation cache: schedules are
            # frozen, and mutations below construct fresh objects, so a
            # shared cached schedule is safe.  The latency check's
            # analytic time and flit simulation stay on the slow path —
            # they are the independent oracles the cache is tested
            # against, so they must never be served *from* it.
            schedule = cached_build_schedule(
                point.pattern, point.shape, num_elements
            )
        except (ScheduleError, CollectiveError) as exc:
            raise ConformanceError(
                f"infeasible conformance point {label}: {exc}"
            ) from exc

        rng = mutation.rng(label) if mutation else None
        if mutation and mutation.mode in SCHEDULE_MODES:
            schedule = mutate_schedule(schedule, mutation, rng)

        checks: dict[str, dict] = {}

        try:
            validate_schedule(schedule)
            checks["validators"] = {"ok": True, "detail": ""}
        except ScheduleError as exc:
            checks["validators"] = {"ok": False, "detail": str(exc)}

        try:
            detail = _functional_detail(point, schedule, config)
        except Exception as exc:  # replay can crash on corrupt offsets
            detail = f"schedule replay failed: {exc}"
        checks["functional"] = {"ok": not detail, "detail": detail}

        checks["latency"], checks["conservation"] = _noc_checks(
            schedule, config, network, mutation, rng
        )

        ok = all(check["ok"] for check in checks.values())
        metric_counter("conformance.points").inc()
        if not ok:
            metric_counter("conformance.failures").inc()
        span.set_attributes(
            ok=ok,
            failed=",".join(
                name for name in CHECKS if not checks[name]["ok"]
            ),
        )
        return {
            "point": point.params,
            "ok": ok,
            "checks": checks,
            "mutation": mutation.as_dict() if mutation else None,
        }


def _noc_checks(
    schedule: CommSchedule,
    config: ConformanceConfig,
    network: PimnetNetworkConfig,
    mutation: Mutation | None,
    rng,
) -> tuple[dict, dict]:
    """The latency-agreement and flit-conservation reports."""
    analytic_s = sum(
        schedule_timing(schedule, network, itemsize=config.itemsize).values()
    )
    analytic_cycles = analytic_s / NOC_CYCLE_S
    lower, upper = config.latency_band(analytic_cycles)

    net = NocNetwork(schedule.shape, network=network)
    messages, barriers = messages_from_schedule(
        schedule, net, "scheduled", itemsize=config.itemsize
    )
    # Expected totals are fixed *before* message-level mutations, so a
    # dropped flit shows up as a conservation deficit.
    expected_flits = sum(m.num_flits for m in messages)
    expected_messages = len(messages)
    if mutation and mutation.mode not in SCHEDULE_MODES:
        messages, barriers = mutate_messages(
            messages, barriers, mutation, rng,
            stall_cycles=int(upper) + 1000,
        )

    if messages:
        sim = NocSimulator(net, messages)
        if barriers:
            sim.set_barriers(barriers)
        stats = sim.run()
        cycles = stats.cycles
        delivered_flits = stats.flits_delivered
        delivered_messages = stats.messages_delivered
    else:
        cycles = 0
        delivered_flits = delivered_messages = 0

    latency_ok = lower <= cycles <= upper
    latency = {
        "ok": latency_ok,
        "analytic_cycles": round(analytic_cycles, 3),
        "noc_cycles": cycles,
        "lower_cycles": round(lower, 3),
        "upper_cycles": round(upper, 3),
        "detail": ""
        if latency_ok
        else (
            f"NoC took {cycles} cycles, outside "
            f"[{lower:.1f}, {upper:.1f}] around the analytic "
            f"{analytic_cycles:.1f}"
        ),
    }
    conservation_ok = (
        delivered_flits == expected_flits
        and delivered_messages == expected_messages
    )
    conservation = {
        "ok": conservation_ok,
        "expected_flits": expected_flits,
        "delivered_flits": delivered_flits,
        "expected_messages": expected_messages,
        "delivered_messages": delivered_messages,
        "detail": ""
        if conservation_ok
        else (
            f"delivered {delivered_flits}/{expected_flits} flits, "
            f"{delivered_messages}/{expected_messages} messages"
        ),
    }
    return latency, conservation


@dataclass
class MatrixReport:
    """One full matrix run: per-point reports plus cache accounting."""

    reports: tuple[dict, ...]
    cache_hits: int = 0
    cache_misses: int = 0
    config: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(report["ok"] for report in self.reports)

    @property
    def failures(self) -> tuple[dict, ...]:
        return tuple(r for r in self.reports if not r["ok"])

    def format(self) -> str:
        lines = [
            f"{'point':42s} {'result':8s} {'analytic':>10s} {'noc':>8s}"
        ]
        for report in self.reports:
            point = ConformancePoint.from_params(report["point"])
            checks = report["checks"]
            failed = [n for n in CHECKS if not checks[n]["ok"]]
            status = "ok" if report["ok"] else "FAIL " + ",".join(failed)
            lines.append(
                f"{point.label():42s} {status:8s} "
                f"{checks['latency']['analytic_cycles']:>10.1f} "
                f"{checks['latency']['noc_cycles']:>8d}"
            )
        lines.append(
            f"{len(self.reports)} point(s), "
            f"{len(self.failures)} failure(s); "
            f"cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
        )
        return "\n".join(lines)


def _cache_params(
    point: ConformancePoint, config: ConformanceConfig
) -> dict:
    """Everything besides the network config that determines a point's
    report.  The matrix axes are deliberately excluded: a point's
    result does not depend on which other points ran beside it."""
    return {
        **point.params,
        "seed": config.seed,
        "itemsize": config.itemsize,
        "latency_rel_tol": config.latency_rel_tol,
        "latency_min_ratio": config.latency_min_ratio,
        "latency_abs_slack_cycles": config.latency_abs_slack_cycles,
    }


def run_matrix(
    config: ConformanceConfig | None = None,
    network: PimnetNetworkConfig | None = None,
    mutation: Mutation | None = None,
    cache_enabled: bool = True,
    cache_dir: str = DEFAULT_CACHE_DIR,
) -> MatrixReport:
    """Run every matrix point; mutated runs never touch the cache."""
    from ..runner.cache import ResultCache, cache_key, key_prefix

    config = config or ConformanceConfig()
    network = network or PimnetNetworkConfig()
    cache = prefix = None
    if cache_enabled and mutation is None:
        cache = ResultCache(cache_dir)
        prefix = key_prefix("conformance", network)

    reports: list[dict] = []
    hits = misses = 0
    with trace_span(
        "conformance/matrix",
        category="conformance",
        points=config.num_points,
        mutation=mutation.mode if mutation else "",
    ):
        for point in enumerate_matrix(config):
            key = None
            if cache is not None:
                key = cache_key(prefix, _cache_params(point, config))
                hit, value = cache.get("conformance", key)
                if hit:
                    reports.append(value)
                    hits += 1
                    metric_counter("conformance.cache.hits").inc()
                    continue
            report = run_point(
                point, config, network=network, mutation=mutation
            )
            if cache is not None:
                cache.put(
                    "conformance", key, report, params=point.params
                )
                misses += 1
                metric_counter("conformance.cache.misses").inc()
            reports.append(report)

    return MatrixReport(
        reports=tuple(reports),
        cache_hits=hits,
        cache_misses=misses,
        config=config.as_dict(),
    )
