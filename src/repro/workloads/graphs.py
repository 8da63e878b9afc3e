"""Synthetic graph generation (the loc-gowalla substitute).

The paper's graph workloads use the log-scaled Gowalla check-in graph
(~197k vertices, ~950k edges).  That dataset is not redistributable
here, so a seeded R-MAT generator produces a graph with the same vertex
and edge counts and a comparable skewed degree distribution — the two
properties that set BFS/CC iteration counts and communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, WorkloadError


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph in CSR form."""

    num_vertices: int
    indptr: np.ndarray   # int64, len = num_vertices + 1
    indices: np.ndarray  # int64, len = 2 * num_edges (both directions)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size) // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]


def rmat_graph(
    num_vertices: int = 196_591,
    num_edges: int = 950_327,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 42,
) -> Graph:
    """Generate an R-MAT graph (Chakrabarti et al.) with numpy batching.

    Default probabilities are the standard skewed setting; defaults for
    the size match loc-gowalla.  Self-loops and duplicate edges are
    removed, so the realized edge count lands slightly under the target
    (as with real R-MAT usage).
    """
    if num_vertices < 2:
        raise ConfigurationError("graph needs at least two vertices")
    if num_edges < 1:
        raise ConfigurationError("graph needs at least one edge")
    for name, p in (("a", a), ("b", b), ("c", c)):
        # Check each probability individually: a negative one can hide
        # inside a sum that still lands in (0, 1).
        if not 0.0 < p < 1.0:
            raise ConfigurationError(
                f"RMAT probability {name}={p} must be in (0, 1)"
            )
    if not a + b + c < 1:
        raise ConfigurationError("RMAT probabilities must leave room for d")
    rng = np.random.default_rng(seed)
    scale = int(np.ceil(np.log2(num_vertices)))
    n_pow2 = 1 << scale

    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(num_edges)
        # quadrant choice: [a | b / c | d]
        right = r >= a + b  # dst bit below, src bit depends
        down = (r >= a) & (r < a + b) | (r >= a + b + c)
        bit = 1 << (scale - 1 - level)
        src += bit * ((r >= a + b)).astype(np.int64)
        dst += bit * (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(
            np.int64
        )
        del right, down

    # Fold into the requested vertex range and clean up.
    src %= num_vertices
    dst %= num_vertices
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # undirected: canonical order then dedupe
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    packed = lo * num_vertices + hi
    packed = np.unique(packed)
    lo = packed // num_vertices
    hi = packed % num_vertices

    # CSR over both directions
    heads = np.concatenate([lo, hi])
    tails = np.concatenate([hi, lo])
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    counts = np.bincount(heads, minlength=num_vertices)
    indptr[1:] = np.cumsum(counts)
    return Graph(
        num_vertices=num_vertices, indptr=indptr, indices=tails
    )


def bfs_reference(graph: Graph, source: int = 0) -> np.ndarray:
    """Level-synchronous BFS; returns per-vertex depth (-1 unreachable)."""
    if not 0 <= source < graph.num_vertices:
        raise WorkloadError("BFS source out of range")
    depth = np.full(graph.num_vertices, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        neighbor_lists = [graph.neighbors(int(v)) for v in frontier]
        if not neighbor_lists:
            break
        candidates = np.unique(np.concatenate(neighbor_lists))
        new = candidates[depth[candidates] < 0]
        depth[new] = level
        frontier = new
    return depth


def connected_components_reference(graph: Graph) -> np.ndarray:
    """Label propagation to a fixed point; returns per-vertex labels."""
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    heads = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64),
        np.diff(graph.indptr),
    )
    tails = graph.indices
    while True:
        proposed = labels.copy()
        np.minimum.at(proposed, heads, labels[tails])
        if np.array_equal(proposed, labels):
            return labels
        labels = proposed
