"""All-pairs shortest paths following PIM-FW's blocked Floyd–Warshall.

PIM-FW ("Hardware-Software Co-Design of All-pairs Shortest Paths in
DRAM") shows that blocked Floyd–Warshall is the broadcast stress case
for an inter-rank bus: every pivot round, the pivot *rows* must reach
every DPU (a Broadcast rooted at the changing owner) and the updated
pivot-*column* blocks — one slice per DPU — must be shared back (an
AllGather).  This module reproduces that structure three ways:

* :func:`floyd_warshall_reference` — the textbook O(n³) recurrence;
* :func:`distributed_floyd_warshall` — row-sharded blocked FW over a
  collective backend, bit-exact against the reference;
* :class:`ApspWorkload` — the per-round phase list: a Broadcast of the
  pivot rows chained with an AllGather of the pivot-column slices.

Distances are int64; unreachable is the *finite* sentinel
:data:`INFINITE_DISTANCE`, chosen so that a min-plus sum involving it
always exceeds it — the sentinel survives both algorithms untouched and
bit-exact comparison is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.patterns import Collective, CollectiveRequest
from ..config.compute import Op
from ..config.presets import MachineConfig
from ..dpu.compute import OpCounts
from ..errors import WorkloadError
from .base import CommPhase, ComputePhase, Workload, WorkloadPhase
from .graphs import rmat_graph

_INT64 = np.dtype(np.int64)

#: Finite "unreachable" distance.  Any min-plus sum with one INFINITE
#: operand is strictly larger than INFINITE (edge weights are
#: nonnegative and path sums stay far below 2**40), so min() never
#: replaces a sentinel with a sentinel-derived sum and both the
#: reference and the blocked algorithm preserve it exactly.
INFINITE_DISTANCE = np.int64(1) << 40


def rmat_weighted_dist(
    num_vertices: int,
    num_edges: int,
    max_weight: int = 64,
    seed: int = 42,
) -> np.ndarray:
    """Dense int64 distance matrix of a weighted R-MAT graph.

    Edges come from :func:`~repro.workloads.graphs.rmat_graph` (so the
    degree skew matches the graph tier); weights are seeded uniform
    integers in ``[1, max_weight]``, symmetric.  Diagonal is 0, missing
    edges are :data:`INFINITE_DISTANCE`.
    """
    if max_weight < 1:
        raise WorkloadError("max_weight must be >= 1")
    graph = rmat_graph(num_vertices, num_edges, seed=seed)
    rng = np.random.default_rng(seed + 1)
    dist = np.full(
        (num_vertices, num_vertices), INFINITE_DISTANCE, dtype=_INT64
    )
    np.fill_diagonal(dist, 0)
    heads = np.repeat(
        np.arange(num_vertices, dtype=_INT64), np.diff(graph.indptr)
    )
    tails = graph.indices
    # One weight per undirected edge: draw on the canonical direction
    # and mirror it.
    canonical = heads < tails
    weights = np.full(heads.size, 0, dtype=_INT64)
    weights[canonical] = rng.integers(
        1, max_weight + 1, size=int(canonical.sum()), dtype=_INT64
    )
    dist[heads[canonical], tails[canonical]] = weights[canonical]
    dist[tails[canonical], heads[canonical]] = weights[canonical]
    return dist


def _check_square(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=_INT64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise WorkloadError(f"distance matrix must be square, got {dist.shape}")
    if dist.shape[0] < 1:
        raise WorkloadError("distance matrix must be non-empty")
    if np.any(dist < 0):
        raise WorkloadError("Floyd–Warshall needs nonnegative weights")
    return dist


def floyd_warshall_reference(dist: np.ndarray) -> np.ndarray:
    """Textbook Floyd–Warshall; returns a new closed distance matrix."""
    dist = _check_square(dist).copy()
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product: ``out[i, j] = min_k a[i, k] + b[k, j]``."""
    return np.min(a[:, :, None] + b[None, :, :], axis=1)


def _close_tile(tile: np.ndarray) -> np.ndarray:
    """Floyd–Warshall restricted to one diagonal tile."""
    tile = tile.copy()
    for k in range(tile.shape[0]):
        np.minimum(
            tile, tile[:, k : k + 1] + tile[k : k + 1, :], out=tile
        )
    return tile


def apsp_shard_geometry(
    num_vertices: int, block: int, num_dpus: int
) -> tuple[int, int]:
    """(rows per DPU, pivot rounds) for one APSP configuration.

    Requires ``num_vertices`` divisible by the DPU count and the block
    size dividing the per-DPU row slab, so every pivot block lives
    entirely on one owner DPU.
    """
    if block < 1:
        raise WorkloadError("APSP block size must be >= 1")
    if num_vertices % num_dpus != 0:
        raise WorkloadError(
            f"APSP: {num_vertices} vertices not divisible by "
            f"{num_dpus} DPUs"
        )
    rows_per = num_vertices // num_dpus
    if rows_per % block != 0:
        raise WorkloadError(
            f"APSP: block {block} does not divide the {rows_per}-row slab"
        )
    return rows_per, num_vertices // block


def distributed_floyd_warshall(
    dist: np.ndarray, block: int, backend
) -> np.ndarray:
    """PIM-FW blocked Floyd–Warshall over a collective backend.

    Rows are sharded contiguously.  Per pivot round ``t`` (pivot rows
    ``K = [t*block, (t+1)*block)``, owned by one DPU):

    1. the owner closes the diagonal tile ``D[K, K]`` and updates its
       pivot rows ``D[K, :]``;
    2. **Broadcast** the pivot rows from the owner (``block * n`` int64);
    3. every DPU updates its pivot-column slice ``D[rows, K]`` locally;
    4. **AllGather** the updated column slices (``rows_per * block``
       int64 each), sharing the full pivot column PIM-FW-style;
    5. every DPU applies the remainder min-plus update to its slab.

    The phase-3/5 updates are deliberately uniform — re-applying them to
    already-closed pivot rows/columns is idempotent — so the code has no
    owner special-casing beyond step 1, mirroring the SPMD kernel.
    """
    dist = _check_square(dist)
    n_dpus = backend.num_dpus
    n = dist.shape[0]
    rows_per, rounds = apsp_shard_geometry(n, block, n_dpus)
    slabs = [
        dist[d * rows_per : (d + 1) * rows_per].copy()
        for d in range(n_dpus)
    ]

    for t in range(rounds):
        lo = t * block
        owner = lo // rows_per
        local = lo - owner * rows_per

        # 1. Owner closes the pivot tile and its pivot rows.
        rows = slabs[owner][local : local + block, :]
        tile = _close_tile(rows[:, lo : lo + block])
        rows = np.minimum(rows, _min_plus(tile, rows))
        slabs[owner][local : local + block, :] = rows

        # 2. Broadcast the pivot rows.
        bcast = backend.run(
            CollectiveRequest(
                Collective.BROADCAST,
                payload_bytes=block * n * _INT64.itemsize,
                dtype=_INT64,
                root=owner,
            ),
            [
                rows.ravel().copy()
                if d == owner
                else np.zeros(block * n, dtype=_INT64)
                for d in range(n_dpus)
            ],
        )
        assert bcast.outputs is not None

        # 3. Local pivot-column update on every DPU.
        pivot_rows = [
            bcast.outputs[d].reshape(block, n) for d in range(n_dpus)
        ]
        contributions = []
        for d in range(n_dpus):
            tile_d = pivot_rows[d][:, lo : lo + block]
            colblk = slabs[d][:, lo : lo + block]
            colblk = np.minimum(colblk, _min_plus(colblk, tile_d))
            slabs[d][:, lo : lo + block] = colblk
            contributions.append(colblk.ravel().copy())

        # 4. AllGather the pivot-column slices.
        gathered = backend.run(
            CollectiveRequest(
                Collective.ALL_GATHER,
                payload_bytes=rows_per * block * _INT64.itemsize,
                dtype=_INT64,
            ),
            contributions,
        )
        assert gathered.outputs is not None

        # 5. Remainder update from the gathered column + broadcast rows.
        for d in range(n_dpus):
            full_col = gathered.outputs[d].reshape(n, block)
            own_col = full_col[d * rows_per : (d + 1) * rows_per]
            slabs[d] = np.minimum(
                slabs[d], _min_plus(own_col, pivot_rows[d])
            )

    return np.vstack(slabs)


@dataclass(frozen=True)
class ApspWorkload(Workload):
    """PIM-FW APSP: per-round pivot-row Broadcast + column AllGather."""

    num_vertices: int = 1024
    block: int = 4
    #: Min-plus cycles per (row element, pivot) pair: load, add,
    #: compare, conditional store.
    cycles_per_update: float = 4.0

    name = "APSP"
    comm = "BC"

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise WorkloadError("APSP needs at least one vertex")
        if self.block < 1:
            raise WorkloadError("APSP block size must be >= 1")

    def phases(self, machine: MachineConfig) -> list[WorkloadPhase]:
        n_dpus = machine.system.banks_per_channel
        n = self.num_vertices
        rows_per, rounds = apsp_shard_geometry(n, self.block, n_dpus)
        row_bytes = self.block * n * _INT64.itemsize
        col_bytes = rows_per * self.block * _INT64.itemsize

        phases: list[WorkloadPhase] = []
        for t in range(rounds):
            owner = (t * self.block) // rows_per
            pivot_updates = (
                self.block**3 + self.block * self.block * n
            )
            col_updates = rows_per * self.block * self.block
            inner_updates = rows_per * self.block * n
            phases.extend(
                [
                    ComputePhase(
                        OpCounts(
                            counts={
                                Op.INT_ADD: (
                                    self.cycles_per_update * pivot_updates
                                )
                            },
                            mram_read_bytes=float(row_bytes),
                        ),
                        name=f"pivot[{t}]",
                    ),
                    CommPhase(
                        CollectiveRequest(
                            Collective.BROADCAST,
                            payload_bytes=row_bytes,
                            dtype=_INT64,
                            root=owner,
                        ),
                        name=f"rows-BC[{t}]",
                    ),
                    ComputePhase(
                        OpCounts(
                            counts={
                                Op.INT_ADD: (
                                    self.cycles_per_update * col_updates
                                )
                            },
                            mram_read_bytes=float(col_bytes),
                            mram_write_bytes=float(col_bytes),
                        ),
                        name=f"col[{t}]",
                    ),
                    CommPhase(
                        CollectiveRequest(
                            Collective.ALL_GATHER,
                            payload_bytes=col_bytes,
                            dtype=_INT64,
                        ),
                        name=f"col-AG[{t}]",
                    ),
                    ComputePhase(
                        OpCounts(
                            counts={
                                Op.INT_ADD: (
                                    self.cycles_per_update * inner_updates
                                )
                            },
                            mram_read_bytes=float(rows_per * n * 8),
                            mram_write_bytes=float(rows_per * n * 8),
                        ),
                        name=f"inner[{t}]",
                    ),
                ]
            )
        return phases

    def expected_comm_volume(
        self, machine: MachineConfig
    ) -> dict[str, int]:
        n_dpus = machine.system.banks_per_channel
        n = self.num_vertices
        rows_per, rounds = apsp_shard_geometry(n, self.block, n_dpus)
        return {
            "BC": rounds * self.block * n * _INT64.itemsize,
            "AG": rounds * rows_per * self.block * _INT64.itemsize,
        }
