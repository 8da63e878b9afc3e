"""Synthetic graph generation and reference graph algorithms."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    bfs_reference,
    connected_components_reference,
    rmat_graph,
)


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(500, 2000, seed=11)


class TestRmatGenerator:
    def test_deterministic_under_seed(self):
        a = rmat_graph(200, 500, seed=1)
        b = rmat_graph(200, 500, seed=1)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_seed_changes_graph(self):
        a = rmat_graph(200, 500, seed=1)
        b = rmat_graph(200, 500, seed=2)
        assert not np.array_equal(a.indices, b.indices)

    def test_edge_count_near_target(self, small_graph):
        # dedup and self-loop removal lose a few percent
        assert 0.7 * 2000 <= small_graph.num_edges <= 2000

    def test_csr_structure_valid(self, small_graph):
        g = small_graph
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert np.all(np.diff(g.indptr) >= 0)
        assert g.indices.min() >= 0
        assert g.indices.max() < g.num_vertices

    def test_graph_is_undirected(self, small_graph):
        g = small_graph
        edges = set()
        for v in range(g.num_vertices):
            for u in g.neighbors(v):
                edges.add((v, int(u)))
        for v, u in edges:
            assert (u, v) in edges

    def test_no_self_loops(self, small_graph):
        g = small_graph
        for v in range(g.num_vertices):
            assert v not in g.neighbors(v)

    def test_skewed_degree_distribution(self, small_graph):
        """R-MAT produces hub vertices (max degree >> mean degree)."""
        degrees = np.diff(small_graph.indptr)
        assert degrees.max() > 5 * max(1.0, degrees.mean())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rmat_graph(1, 10)
        with pytest.raises(ConfigurationError):
            rmat_graph(10, 0)

    def test_degenerate_probabilities_rejected_eagerly(self):
        """Individually-invalid a/b/c must fail even when the sum looks
        fine (regression: -0.1 + 0.6 + 0.3 sums into (0, 1))."""
        with pytest.raises(ConfigurationError):
            rmat_graph(100, 200, a=-0.1, b=0.6, c=0.3)
        with pytest.raises(ConfigurationError):
            rmat_graph(100, 200, a=0.5, b=-0.2, c=0.4)
        with pytest.raises(ConfigurationError):
            rmat_graph(100, 200, a=0.3, b=0.3, c=1.2)
        with pytest.raises(ConfigurationError):
            rmat_graph(100, 200, a=0.0, b=0.4, c=0.4)
        with pytest.raises(ConfigurationError):
            rmat_graph(100, 200, a=0.5, b=0.3, c=0.2)  # no room for d


class TestBfsReference:
    def test_source_has_depth_zero(self, small_graph):
        depth = bfs_reference(small_graph, 0)
        assert depth[0] == 0

    def test_depths_are_consistent(self, small_graph):
        """Neighbors differ by at most one level (triangle property)."""
        depth = bfs_reference(small_graph, 0)
        for v in range(small_graph.num_vertices):
            if depth[v] < 0:
                continue
            for u in small_graph.neighbors(v):
                if depth[u] >= 0:
                    assert abs(depth[u] - depth[v]) <= 1

    def test_unreachable_marked(self):
        g = rmat_graph(64, 40, seed=3)
        depth = bfs_reference(g, 0)
        assert (depth == -1).any() or (depth >= 0).all()

    def test_bfs_levels_positive(self, small_graph):
        """The source is its own level 0, so BFS runs at least one level."""
        assert bfs_reference(small_graph, 0)[0] == 0

    def test_invalid_source(self, small_graph):
        with pytest.raises(WorkloadError):
            bfs_reference(small_graph, small_graph.num_vertices)


class TestCcReference:
    def test_labels_constant_within_component(self, small_graph):
        labels = connected_components_reference(small_graph)
        for v in range(small_graph.num_vertices):
            for u in small_graph.neighbors(v):
                assert labels[v] == labels[u]

    def test_labels_are_component_minima(self, small_graph):
        labels = connected_components_reference(small_graph)
        for v in range(small_graph.num_vertices):
            assert labels[v] <= v

    def test_isolated_vertices_keep_own_label(self):
        g = rmat_graph(64, 20, seed=5)
        labels = connected_components_reference(g)
        isolated = [v for v in range(64) if g.degree(v) == 0]
        for v in isolated:
            assert labels[v] == v
