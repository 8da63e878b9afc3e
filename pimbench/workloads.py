"""The benchmark's four workloads, driven through the public ``repro`` API.

A workload is built once per run from the seed (the set-up ``run.py``
times as ``setup_s``), then runs *rounds*: fixed, self-contained units of
work.  Round ``r`` replays the inputs of round ``r % period``, so a
repeated round must reproduce its first outputs exactly.  Rounds of the
batch workloads start from empty caches — a fresh runner cache directory
and a fresh :class:`~repro.schedcache.ScheduleCache` — so they cost the
same whatever ran before, and the throughput of a run does not depend on
how many rounds fit in it.  The fleet keeps one schedule cache for the
whole run, as a long-running service would: its first round compiles,
later rounds replay, and must still reproduce the first round's outputs.

An *operation* is one NoC simulation, one verification cell, one fleet
submission or one ``run_experiment`` call.  It fails when it raises or
its output check fails.  A simulated rejection or failure of a fleet
request is a result of the simulation, not a failed operation.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from repro.collectives.patterns import Collective, CollectiveRequest, ReduceOp
from repro.config.conformance import ConformanceConfig
from repro.config.fleet import FleetConfig, kill_shard_outage
from repro.config.presets import pimnet_sim_system
from repro.config.runner import RunnerConfig
from repro.config.service import ServiceConfig, TenantQuotaConfig, TimeSlotConfig
from repro.conformance import enumerate_matrix, run_matrix
from repro.experiments.noc_load_latency import INJECTION_RATES, build_point_workload
from repro.fleet import FleetRouter
from repro.noc import NocSimulator
from repro.runner import REGISTRY, run_experiment, tables_to_jsonable
from repro.schedcache import ScheduleCache, use_schedule_cache
from repro.workloads import enumerate_cases, run_differential_matrix

from common import DEFAULT_SEED, ROOT

T = TypeVar("T")


@dataclass
class Round:
    """What one round did: per-operation host times and its outputs."""

    #: Host seconds of each completed operation, in completion order.
    latencies_s: list[float]
    #: Host seconds of the round's timed region.  Equal to the sum of
    #: ``latencies_s`` unless operations overlap (the fleet's closed loop).
    busy_s: float
    attempted: int
    failed: int
    #: Canonical simulated outputs (JSON-able); hashed into the digest.
    output: object


def _timed(latencies: list[float], what: str, call: Callable[[], T]) -> T | None:
    """``call()``, with its host time appended to ``latencies``.

    An operation that raises is reported on stderr with its traceback and
    gives ``None``; the caller counts it as failed.
    """
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        latencies.append(time.perf_counter() - start)
        print(f"pimbench: operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return None
    latencies.append(time.perf_counter() - start)
    return result


class NocCredit:
    """Uniform-random traffic through the flit-level NoC in credit mode.

    One round is every injection rate on three fabric sizes.  The rates
    run from idle, where the event loop fast-forwards over empty cycles,
    to saturation, where switch arbitration dominates, so an engine
    change that helps one regime and hurts the other shows up here.
    """

    name = "noc-credit"
    period = 4
    trace_rounds = 2
    #: A run holds ~120 simulations, so p90 has about ten beyond it.
    tail_pct = 90.0
    SHAPES = ((4, 2, 2), (4, 4, 2), (8, 4, 2))
    QUICK_SHAPES = ((2, 2, 2), (4, 2, 2))
    MESSAGES_PER_DPU = 8
    FLITS_PER_MESSAGE = 4

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        shapes = self.QUICK_SHAPES if quick else self.SHAPES
        points = [(shape, rate) for shape in shapes for rate in INJECTION_RATES]
        # Every simulation gets its own traffic pattern, so a run averages
        # over many patterns and its cost varies little from seed to seed.
        self.rounds = [
            [
                build_point_workload(
                    rate, *shape, self.MESSAGES_PER_DPU,
                    self.FLITS_PER_MESSAGE,
                    zlib.crc32(f"{seed}:{k}:{j}".encode()),
                )
                for j, (shape, rate) in enumerate(points)
            ]
            for k in range(self.period)
        ]

    def run_round(self, index: int) -> Round:
        latencies: list[float] = []
        failed = 0
        outputs = []
        for network, messages in self.rounds[index % self.period]:
            stats = _timed(
                latencies, f"{self.name} round {index}",
                lambda: NocSimulator(network, messages).run(),
            )
            if stats is None:
                failed += 1
                outputs.append(None)
                continue
            flits = sum(m.num_flits for m in messages)
            if (
                stats.flits_delivered != flits
                or stats.messages_delivered != len(messages)
            ):
                failed += 1
            outputs.append(
                [
                    stats.cycles,
                    stats.flits_delivered,
                    stats.messages_delivered,
                    stats.total_flit_hops,
                    stats.peak_buffer_occupancy,
                    stats.arbitration_conflicts,
                    stats.events_processed,
                    stats.idle_cycles_skipped,
                    sorted(stats.per_message_latency.items()),
                ]
            )
        return Round(latencies, sum(latencies), len(latencies), failed, outputs)


class VerifyCold:
    """``repro conformance run`` plus ``repro verify``, on cold caches.

    One round is the conformance matrix at one seed followed by the
    workload differential matrix, each cell run on its own so it can be
    timed.  Conformance cells spend nearly all their time in the NoC in
    barrier-gated scheduled mode — the same layer as ``noc-credit``,
    used another way — plus the functional and trace checks.
    """

    name = "verify-cold"
    period = 3
    trace_rounds = 1
    #: The slowest cells (all-to-all on the largest shape) set p99 and
    #: repeat from run to run; lower percentiles fall among many cells of
    #: different cost and move with where the rank lands.
    tail_pct = 99.0
    QUICK_CONFORMANCE = dict(
        collectives=("all_reduce", "broadcast"),
        shapes=((2, 2, 1), (2, 2, 2)),
        payload_bytes=(256,),
    )
    QUICK_CASES = dict(keys=("HST", "SCAN"), shapes=((2, 2, 2),), scales=("S",))

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        self.scratch = scratch
        extra = self.QUICK_CONFORMANCE if quick else {}
        self.configs = [
            ConformanceConfig(seed=seed + k, **extra)
            for k in range(self.period)
        ]
        self.cases = enumerate_cases(**(self.QUICK_CASES if quick else {}))

    def run_round(self, index: int) -> Round:
        config = self.configs[index % self.period]
        cache_dir = self.scratch / f"{self.name}-{index}"
        latencies: list[float] = []
        failed = 0
        outputs = []
        with use_schedule_cache(ScheduleCache()):
            for point in enumerate_matrix(config):
                cell = replace(
                    config,
                    collectives=(point.collective,),
                    shapes=((point.banks, point.chips, point.ranks),),
                    payload_bytes=(point.payload_bytes,),
                )
                report = _timed(
                    latencies, f"{self.name} cell {point.label()}",
                    lambda: run_matrix(cell, cache_dir=str(cache_dir)),
                )
                if report is None:
                    failed += 1
                    outputs.append(None)
                    continue
                if not report.ok or len(report.reports) != 1:
                    failed += 1
                outputs.append(list(report.reports))
            for case in self.cases:
                reports = _timed(
                    latencies, f"{self.name} case {case.case_id}",
                    lambda: run_differential_matrix([case]),
                )
                if reports is None:
                    failed += 1
                    outputs.append(None)
                    continue
                if len(reports) != 1 or not all(r.passed for r in reports):
                    failed += 1
                outputs.append(
                    [
                        [r.case.case_id, r.functional_ok, r.trace_ok,
                         r.volume_ok, r.detail]
                        for r in reports
                    ]
                )
        shutil.rmtree(cache_dir, ignore_errors=True)
        return Round(latencies, sum(latencies), len(latencies), failed, outputs)


class ServeFleet:
    """A closed-loop drive of the sharded fleet with a mid-round outage.

    Eight tenants cycle through AllReduce int64 MIN, ReduceScatter int32
    SUM, Broadcast and AllGather; each keeps four requests outstanding.
    Payloads are Pareto(1.2) multiples of the DPU quantum capped at 256,
    so requests share work through the service memo and schedule replay
    at a realistic skew; 2% of the non-sharded patterns are off-quantum
    and take the closed-form fallback.  Shard 1 is killed a third of the
    way through each round and revived at two thirds, so rerouting is
    exercised.  The NoC and the runner do no work here.  Every round
    starts a fresh fleet, but the schedule cache lives for the whole run.
    """

    name = "serve-fleet"
    period = 2
    trace_rounds = 1
    #: p99 depends on how many maximum-size payloads a seed draws (a
    #: request queued behind one waits a whole oversized window), so it
    #: moves with the seed far more than with the code; p90 does not.
    tail_pct = 90.0
    SHARDS = 4
    KILLED_SHARD = 1
    CONCURRENCY = 4
    REQUESTS_PER_TENANT = 1500
    QUICK_REQUESTS_PER_TENANT = 24
    PARETO_ALPHA = 1.2
    MAX_MULTIPLE = 256
    OFF_QUANTUM_SHARE = 0.02
    #: (pattern, dtype, op) of each tenant kind, cycled over 8 tenants.
    KINDS = (
        (Collective.ALL_REDUCE, np.dtype(np.int64), ReduceOp.MIN),
        (Collective.REDUCE_SCATTER, np.dtype(np.int32), ReduceOp.SUM),
        (Collective.BROADCAST, np.dtype(np.int64), ReduceOp.SUM),
        (Collective.ALL_GATHER, np.dtype(np.int32), ReduceOp.SUM),
    )
    TENANTS = 8
    SERVICE = ServiceConfig(
        slots=(
            TimeSlotConfig(
                "ar_bc", ("all_reduce", "broadcast"),
                time_window_s=500e-6, max_multiplexing=2,
            ),
            TimeSlotConfig(
                "rs_ag", ("reduce_scatter", "all_gather"),
                time_window_s=500e-6, max_multiplexing=2,
            ),
        ),
        switch_time_s=20e-6,
        queue_limit=64,
        default_quota=TenantQuotaConfig(max_queued=8, max_per_slot=4),
    )

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        self.machine = pimnet_sim_system()
        self.schedules = ScheduleCache()
        num_dpus = self.machine.system.banks_per_channel
        per_tenant = (
            self.QUICK_REQUESTS_PER_TENANT if quick
            else self.REQUESTS_PER_TENANT
        )
        self.total = self.TENANTS * per_tenant
        self.epochs = []
        for k in range(self.period):
            streams = []
            for index in range(self.TENANTS):
                pattern, dtype, op = self.KINDS[index % len(self.KINDS)]
                tenant = f"{index}-{pattern.value}"
                rng = random.Random(zlib.crc32(f"{seed}:{k}:{tenant}".encode()))
                quantum = num_dpus * dtype.itemsize
                # Reduce-Scatter must shard evenly, so only the other
                # patterns draw off-quantum payloads.
                may_skew = pattern is not Collective.REDUCE_SCATTER
                # Each tenant opens with one base-size request.  A service
                # compiles a structure at the payload of the first request
                # it admits, and an AllGather schedule on this machine is
                # ~14 MB, so otherwise peak memory would follow how many
                # distinct opening payloads a seed happens to draw.
                requests = [CollectiveRequest(pattern, quantum, dtype=dtype, op=op)]
                for _ in range(per_tenant - 1):
                    multiple = min(
                        self.MAX_MULTIPLE,
                        int(rng.paretovariate(self.PARETO_ALPHA)),
                    )
                    payload = quantum * multiple
                    if may_skew and rng.random() < self.OFF_QUANTUM_SHARE:
                        payload += dtype.itemsize
                    requests.append(
                        CollectiveRequest(pattern, payload, dtype=dtype, op=op)
                    )
                streams.append((tenant, tuple(requests)))
            config = FleetConfig(
                shards=self.SHARDS,
                service=self.SERVICE,
                outages=(
                    kill_shard_outage(
                        self.KILLED_SHARD, self.total // 3, self.total // 3,
                        seed=seed * self.period + k,
                    ),
                ),
            )
            self.epochs.append((config, tuple(streams)))

    async def _drive(self, config, streams, latencies, responses) -> dict:
        async with FleetRouter(config, self.machine) as fleet:

            async def client(tenant: str, pending) -> None:
                for request in pending:
                    start = time.perf_counter()
                    response = await fleet.submit(tenant, request)
                    latencies.append(time.perf_counter() - start)
                    responses.append(response)

            clients = []
            for tenant, requests in streams:
                pending = iter(requests)
                clients.extend(
                    client(tenant, pending) for _ in range(self.CONCURRENCY)
                )
            await asyncio.gather(*clients)
            await fleet.drain()
            return fleet.stats()

    def run_round(self, index: int) -> Round:
        config, streams = self.epochs[index % self.period]
        latencies: list[float] = []
        responses: list = []
        walls: list[float] = []

        def drive() -> dict:
            with use_schedule_cache(self.schedules):
                return asyncio.run(self._drive(config, streams, latencies, responses))

        stats = _timed(walls, f"{self.name} round {index}", drive)
        busy = walls[0]
        if stats is None:
            return Round(latencies, busy, self.total, self.total, None)
        failed = 0 if stats["submitted"] == len(responses) == self.total else self.total
        # Hash the responses one by one instead of keeping 12k dicts alive.
        fingerprint = hashlib.sha256()
        for response in responses:
            fingerprint.update(
                json.dumps(response.to_dict(), sort_keys=True).encode()
            )
        output = {"stats": stats, "responses_sha256": fingerprint.hexdigest()}
        return Round(latencies, busy, self.total, failed, output)


class PaperSweep:
    """The ``repro run`` path over every analytic experiment.

    One round runs each experiment once against an empty result cache
    and a fresh schedule cache (compile, time, write), then reruns all of
    them five times against the same directory (read only), with
    ``jobs=1``.  Its time goes to runner key canonicalization and cache
    I/O, fault sampling and analytic timing — no NoC and no serving.
    """

    name = "paper-sweep"
    period = 1
    trace_rounds = 4
    #: Cold runs of the slowest experiments (fault_sweep, straggler_tail).
    tail_pct = 99.0
    #: Cycle-level or serving experiments, each covered by another
    #: workload or too slow to rerun many times a second.
    EXCLUDED = frozenset(
        {"fig13", "noc_load_latency", "tenant_service_load",
         "fleet_resilience", "prim_suite"}
    )
    QUICK_IDS = ("fig11", "table04", "table05")
    WARM_RERUNS = 5
    QUICK_WARM_RERUNS = 1

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        self.scratch = scratch
        self.ids = (
            self.QUICK_IDS if quick
            else tuple(i for i in REGISTRY.ids() if i not in self.EXCLUDED)
        )
        self.warm_reruns = self.QUICK_WARM_RERUNS if quick else self.WARM_RERUNS
        # The default seed runs every experiment at its registered seed,
        # which the committed goldens pin; any other seed overrides it.
        self.seed = None if seed == DEFAULT_SEED else seed
        self.goldens = None
        if self.seed is None:
            golden_dir = ROOT / "tests" / "goldens"
            self.goldens = {
                i: json.loads((golden_dir / f"{i}.json").read_text())
                for i in self.ids
            }

    def run_round(self, index: int) -> Round:
        cache_dir = self.scratch / f"{self.name}-{index}"
        runner = RunnerConfig(jobs=1, cache_dir=str(cache_dir))
        latencies: list[float] = []
        failed = 0
        cold: dict[str, object] = {}
        with use_schedule_cache(ScheduleCache()):
            for rerun in range(1 + self.warm_reruns):
                for experiment_id in self.ids:
                    run = _timed(
                        latencies, f"{self.name} {experiment_id}",
                        lambda: run_experiment(
                            experiment_id, runner=runner, seed=self.seed
                        ),
                    )
                    if run is None or not self._check(run, rerun, cold):
                        failed += 1
        shutil.rmtree(cache_dir, ignore_errors=True)
        output = {i: cold.get(i) for i in self.ids}
        return Round(latencies, sum(latencies), len(latencies), failed, output)

    def _check(self, run, rerun: int, cold: dict) -> bool:
        """Cold runs miss every point and match the goldens (default
        seed); warm runs hit every point and match the cold tables."""
        tables = tables_to_jsonable(run.tables)
        if rerun == 0:
            cold[run.experiment_id] = tables
            if run.cache_misses != run.points:
                return False
            if self.goldens is None:
                return True
            golden = self.goldens[run.experiment_id]
            return tables == golden["tables"] and run.format() == golden["formatted"]
        return (
            run.cache_hits == run.points
            and tables == cold.get(run.experiment_id)
        )


WORKLOADS = {
    cls.name: cls for cls in (NocCredit, VerifyCold, ServeFleet, PaperSweep)
}
