"""Differential workload harness: three views of one workload, compared.

Every workload exists as a numpy functional reference and a distributed
decomposition over a collective backend; the PrIM/APSP tier also
declares a phase list that its decomposition issues request for
request.  This module runs the parametrized matrix (workload × machine
shape × payload scale, mirroring :mod:`repro.conformance`) and holds the
views against each other:

1. **Functional** — the distributed output equals the reference
   bit-exactly on seeded inputs;
2. **Trace** — the collectives the decomposition actually issued equal
   the workload's declared :func:`~repro.workloads.base.comm_trace`,
   request by request (pattern, payload bytes, root, order);
3. **Conservation** — bytes moved per pattern match the workload's
   closed-form ``expected_comm_volume``, computed from its parameters
   alone.

The Table VII workloads (GEMV … CC) get the functional check only: their
decompositions were not written to issue the phase list their workload
declares (Join, BFS and CC issue a data-dependent number of
collectives), so their runners declare no workload and their trace and
conservation checks report ``None``.

Used by ``tests/test_workloads_differential.py`` (the tier-1 matrix), by
the CI ``workloads`` job, which renders :func:`summarize_by_workload` as
a pass/fail table, and by ``python -m repro verify``, one 8-DPU cell per
workload.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from ..collectives.backend import registry
from ..collectives.patterns import CollectiveRequest
from ..config.presets import MachineConfig, small_test_system
from ..config.system import PimSystemConfig
from ..errors import WorkloadError
from .apsp import (
    ApspWorkload,
    distributed_floyd_warshall,
    floyd_warshall_reference,
    rmat_weighted_dist,
)
from .base import PATTERN_LABEL, Workload, comm_trace, collective_volume
from .bfs import verify_distributed_bfs
from .cc import verify_distributed_cc
from .embedding import distributed_embedding_lookup, embedding_reference
from .gemv import distributed_gemv
from .graphs import rmat_graph
from .join import distributed_hash_join, join_reference
from .mlp import distributed_mlp, mlp_reference
from .ntt import MODULUS, distributed_ntt_2d, ntt_reference
from .prim import (
    BinarySearchWorkload,
    HistogramWorkload,
    ScanWorkload,
    SelectWorkload,
    TsSimilarityWorkload,
    binary_search_reference,
    distributed_binary_search,
    distributed_histogram,
    distributed_scan,
    distributed_select,
    distributed_tss,
    histogram_reference,
    scan_reference,
    select_reference,
    tss_reference,
)
from .spmv import distributed_spmv, random_coo_matrix, spmv_reference

#: The differential matrix axes: ≥3 shapes × ≥3 payload scales.
DEFAULT_SHAPES: tuple[tuple[int, int, int], ...] = (
    (2, 2, 2),   # the tiny test machine
    (4, 2, 2),   # bank-heavy
    (2, 2, 4),   # rank-heavy (full-depth rank bus)
)
DEFAULT_SCALES: tuple[str, ...] = ("S", "M", "L")
_SCALE_FACTOR = {"S": 1, "M": 4, "L": 16}

#: Workload keys of the default matrix (the tier with declared phase
#: lists), in matrix order.
DIFFERENTIAL_KEYS: tuple[str, ...] = (
    "HST", "SCAN", "SEL", "BS", "TS", "APSP",
)


@dataclass(frozen=True)
class DifferentialCase:
    """One cell of the matrix: workload × machine shape × payload."""

    workload_key: str
    shape: tuple[int, int, int]  # (banks/chip, chips/rank, ranks)
    scale: str
    backend_key: str = "P"

    def __post_init__(self) -> None:
        if self.workload_key not in _RUNNERS:
            raise WorkloadError(
                f"unknown differential workload {self.workload_key!r}; "
                f"known: {list(_RUNNERS)}"
            )
        if self.scale not in _SCALE_FACTOR:
            raise WorkloadError(
                f"unknown payload scale {self.scale!r}; "
                f"known: {list(_SCALE_FACTOR)}"
            )

    @property
    def case_id(self) -> str:
        banks, chips, ranks = self.shape
        return (
            f"{self.workload_key}-{banks}x{chips}x{ranks}-{self.scale}"
            f"-{self.backend_key}"
        )

    @property
    def seed(self) -> int:
        # Deterministic per-cell seed (not ``hash()``, which is
        # per-process randomized) so every cell sees distinct data.
        return zlib.crc32(self.case_id.encode())

    def machine(self) -> MachineConfig:
        banks, chips, ranks = self.shape
        return replace(
            small_test_system(),
            system=PimSystemConfig(
                banks_per_chip=banks,
                chips_per_rank=chips,
                ranks_per_channel=ranks,
            ),
        )


@dataclass(frozen=True)
class CaseReport:
    """Outcome of one differential cell, check by check.

    ``trace_ok`` and ``volume_ok`` are ``None`` for a workload that
    declares no phase list to hold its decomposition to.
    """

    case: DifferentialCase
    functional_ok: bool
    trace_ok: bool | None
    volume_ok: bool | None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.functional_ok
            and self.trace_ok is not False
            and self.volume_ok is not False
        )


class TraceRecordingBackend:
    """Backend wrapper recording every collective request it executes.

    Duck-typed against the two members the distributed decompositions
    use (``num_dpus`` and ``run``), so it composes with any registered
    backend.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.trace: list[CollectiveRequest] = []

    @property
    def num_dpus(self) -> int:
        return self.inner.num_dpus

    def run(self, request: CollectiveRequest, buffers=None):
        self.trace.append(request)
        return self.inner.run(request, buffers)


def _run_gemv(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    weights = rng.integers(-9, 9, (4 * n * m, 8 * n * m)).astype(np.int64)
    x = rng.integers(-9, 9, 8 * n * m).astype(np.int64)
    got = distributed_gemv(weights, x, backend)
    return None, np.array_equal(got, weights @ x)


def _run_mlp(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    layers = [
        rng.integers(-3, 3, (2 * n * m, 2 * n * m)).astype(np.int64)
        for _ in range(3)
    ]
    x = rng.integers(0, 4, 2 * n * m).astype(np.int64)
    got = distributed_mlp(layers, x, backend)
    return None, np.array_equal(got, mlp_reference(layers, x))


def _run_spmv(case, backend, rng):
    size = 8 * backend.num_dpus * _SCALE_FACTOR[case.scale]
    coo = random_coo_matrix(size, size, 6 * size, seed=case.seed)
    x = rng.integers(0, 9, size).astype(np.int64)
    got = distributed_spmv(coo, size, size, x, backend)
    return None, np.array_equal(got, spmv_reference(coo, size, x))


def _run_ntt(case, backend, rng):
    # The four-step NTT is n x n points by construction: no scale axis.
    n = backend.num_dpus
    values = rng.integers(0, MODULUS, n * n).astype(np.int64)
    got = distributed_ntt_2d(values, backend)
    return None, np.array_equal(got, ntt_reference(values))


def _run_emb(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    table = rng.integers(0, 50, (16 * n * m, n)).astype(np.int64)
    indices = rng.integers(0, 16 * n * m, (n * m, 4))
    got = distributed_embedding_lookup(table, indices, backend)
    return None, np.array_equal(got, embedding_reference(table, indices))


def _run_join(case, backend, rng):
    m = _SCALE_FACTOR[case.scale]
    left = rng.choice(4096 * m, 256 * m, replace=False)
    right = rng.choice(4096 * m, 192 * m, replace=False)
    got = distributed_hash_join(left, right, backend)
    return None, got == join_reference(left, right)


def _run_bfs(case, backend, rng):
    m = _SCALE_FACTOR[case.scale]
    graph = rmat_graph(128 * m, 400 * m, seed=case.seed)
    return None, verify_distributed_bfs(graph, 0, backend)


def _run_cc(case, backend, rng):
    m = _SCALE_FACTOR[case.scale]
    graph = rmat_graph(96 * m, 300 * m, seed=case.seed)
    return None, verify_distributed_cc(graph, backend)


def _run_hst(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    num_bins = 16 * m
    items = 8 * n * m
    values = rng.integers(0, num_bins, items).astype(np.int64)
    got = distributed_histogram(values, num_bins, backend)
    want = histogram_reference(values, num_bins)
    workload = HistogramWorkload(items=items, num_bins=num_bins)
    return workload, np.array_equal(got, want)


def _run_scan(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    items = 8 * n * m
    values = rng.integers(-1000, 1000, items).astype(np.int64)
    got = distributed_scan(values, backend)
    want = scan_reference(values)
    return ScanWorkload(items=items), np.array_equal(got, want)


def _run_sel(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    items = 8 * n * m
    values = rng.integers(-1000, 1000, items).astype(np.int64)
    got = distributed_select(values, 0, backend)
    want = select_reference(values, 0)
    return SelectWorkload(items=items), np.array_equal(got, want)


def _run_bs(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    haystack_items = 8 * n * m
    num_queries = 4 * m
    haystack = np.sort(
        rng.integers(0, 10_000, haystack_items).astype(np.int64)
    )
    queries = rng.integers(-10, 10_010, num_queries).astype(np.int64)
    got = distributed_binary_search(haystack, queries, backend)
    want = binary_search_reference(haystack, queries)
    workload = BinarySearchWorkload(
        haystack_items=haystack_items, num_queries=num_queries
    )
    return workload, np.array_equal(got, want)


def _run_ts(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    query_items = 4 * m
    positions = 8 * n * m
    series = rng.integers(0, 100, positions + query_items - 1).astype(
        np.int64
    )
    query = rng.integers(0, 100, query_items).astype(np.int64)
    got = distributed_tss(series, query, backend)
    want = tss_reference(series, query)
    workload = TsSimilarityWorkload(
        series_items=series.size, query_items=query_items
    )
    return workload, got == want


def _run_apsp(case, backend, rng):
    n = backend.num_dpus
    m = _SCALE_FACTOR[case.scale]
    # rows per DPU: 2 / 4 / 8; block 2 (4 at the largest scale).
    rows_per = {1: 2, 4: 4, 16: 8}[m]
    block = 2 if m < 16 else 4
    num_vertices = rows_per * n
    dist = rmat_weighted_dist(
        num_vertices, 3 * num_vertices, seed=case.seed
    )
    got = distributed_floyd_warshall(dist, block, backend)
    want = floyd_warshall_reference(dist)
    workload = ApspWorkload(num_vertices=num_vertices, block=block)
    return workload, np.array_equal(got, want)


#: Every checked workload, in ``repro verify`` order: the Table VII
#: workloads first (no declared phase list), then the PrIM/APSP tier.
_RUNNERS = {
    "GEMV": _run_gemv,
    "MLP": _run_mlp,
    "SpMV": _run_spmv,
    "NTT": _run_ntt,
    "EMB": _run_emb,
    "Join": _run_join,
    "BFS": _run_bfs,
    "CC": _run_cc,
    "HST": _run_hst,
    "SCAN": _run_scan,
    "SEL": _run_sel,
    "BS": _run_bs,
    "TS": _run_ts,
    "APSP": _run_apsp,
}

#: Every workload key :func:`run_case` checks, in ``repro verify`` order.
WORKLOAD_KEYS: tuple[str, ...] = tuple(_RUNNERS)


def _expand_trace(
    workload: Workload, machine: MachineConfig
) -> list[tuple[str, int, int]]:
    """The declared trace as a flat (pattern, bytes, root) sequence."""
    flat = []
    for entry in comm_trace(workload, machine):
        flat.extend(
            [(entry.pattern, entry.payload_bytes, entry.root)]
            * entry.repeat
        )
    return flat


def run_case(case: DifferentialCase) -> CaseReport:
    """Run one matrix cell: functional, trace, and conservation checks.

    A workload without a declared phase list gets the functional check
    only; its report's ``trace_ok`` and ``volume_ok`` are ``None``.
    """
    machine = case.machine()
    backend = TraceRecordingBackend(
        registry.create(case.backend_key, machine)
    )
    rng = np.random.default_rng(case.seed)

    workload, functional_ok = _RUNNERS[case.workload_key](
        case, backend, rng
    )
    details = []
    if not functional_ok:
        details.append("distributed output != functional reference")
    if workload is None:
        return CaseReport(case, functional_ok, None, None, "; ".join(details))

    declared = _expand_trace(workload, machine)
    recorded = [
        (PATTERN_LABEL[r.pattern], r.payload_bytes, r.root)
        for r in backend.trace
    ]
    trace_ok = declared == recorded
    if not trace_ok:
        details.append(
            f"trace mismatch: declared {len(declared)} collectives "
            f"{declared[:3]}..., recorded {len(recorded)} "
            f"{recorded[:3]}..."
        )

    expected = workload.expected_comm_volume(machine)
    declared_volume = collective_volume(workload, machine)
    recorded_volume: dict[str, int] = {}
    for pattern, payload, _root in recorded:
        recorded_volume[pattern] = (
            recorded_volume.get(pattern, 0) + payload
        )
    volume_ok = expected == declared_volume == recorded_volume
    if not volume_ok:
        details.append(
            f"volume mismatch: closed-form {expected}, "
            f"declared {declared_volume}, recorded {recorded_volume}"
        )

    return CaseReport(
        case=case,
        functional_ok=functional_ok,
        trace_ok=trace_ok,
        volume_ok=volume_ok,
        detail="; ".join(details),
    )


def enumerate_cases(
    keys: tuple[str, ...] = DIFFERENTIAL_KEYS,
    shapes: tuple[tuple[int, int, int], ...] = DEFAULT_SHAPES,
    scales: tuple[str, ...] = DEFAULT_SCALES,
    backend_key: str = "P",
) -> list[DifferentialCase]:
    """The full matrix, workload-major."""
    return [
        DifferentialCase(key, shape, scale, backend_key)
        for key in keys
        for shape in shapes
        for scale in scales
    ]


def run_differential_matrix(
    cases: list[DifferentialCase] | None = None,
) -> list[CaseReport]:
    """Run the whole matrix (or a subset) and return every report."""
    if cases is None:
        cases = enumerate_cases()
    return [run_case(case) for case in cases]


def summarize_by_workload(
    reports: list[CaseReport],
) -> list[dict[str, object]]:
    """Per-workload pass/fail rows, in the order keys first appear."""
    rows = []
    for key in dict.fromkeys(r.case.workload_key for r in reports):
        mine = [r for r in reports if r.case.workload_key == key]
        failed = [r for r in mine if not r.passed]
        rows.append(
            {
                "workload": key,
                "cases": len(mine),
                "passed": len(mine) - len(failed),
                "failed": len(failed),
                "status": "ok" if not failed else "FAIL",
                "detail": failed[0].detail if failed else "",
            }
        )
    return rows
