"""PIM-FW APSP: blocked Floyd–Warshall and its chained schedules.

Covers the reference algorithm's invariants, the distributed blocked
decomposition's bit-exactness, the hypothesis property suite (APSP vs
reference FW on random weighted R-MAT graphs), and the new
Broadcast + AllGather :class:`~repro.core.ScheduleChain`: structural
validation plus the conformance latency band on a flit-level NoC point.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import registry
from repro.config import small_test_system
from repro.core import Shape, chain_timing, validate_schedule
from repro.errors import ScheduleError, WorkloadError
from repro.noc.network import NocNetwork
from repro.noc.simulator import NocSimulator
from repro.noc.workload import messages_from_schedule
from repro.workloads import (
    ApspWorkload,
    INFINITE_DISTANCE,
    apsp_round_chain,
    apsp_shard_geometry,
    comm_trace,
    distributed_floyd_warshall,
    floyd_warshall_reference,
    rmat_weighted_dist,
)

pytestmark = pytest.mark.workloads


@pytest.fixture(params=["P", "B", "S"])
def backend(request, tiny_machine):
    return registry.create(request.param, tiny_machine)


def _line_graph(n: int, weight: int = 3) -> np.ndarray:
    """Path graph 0-1-...-n-1: shortest paths are hop counts * weight."""
    dist = np.full((n, n), INFINITE_DISTANCE, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for i in range(n - 1):
        dist[i, i + 1] = dist[i + 1, i] = weight
    return dist


class TestReference:
    def test_line_graph_closed_form(self):
        n = 16
        closed = floyd_warshall_reference(_line_graph(n))
        expected = 3 * np.abs(
            np.arange(n)[:, None] - np.arange(n)[None, :]
        )
        assert np.array_equal(closed, expected)

    def test_disconnected_stays_infinite(self):
        dist = np.full((4, 4), INFINITE_DISTANCE, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        dist[0, 1] = dist[1, 0] = 5
        dist[2, 3] = dist[3, 2] = 7
        closed = floyd_warshall_reference(dist)
        assert closed[0, 2] == INFINITE_DISTANCE
        assert closed[1, 3] == INFINITE_DISTANCE
        assert closed[0, 1] == 5 and closed[2, 3] == 7

    def test_idempotent(self):
        dist = rmat_weighted_dist(16, 48, seed=5)
        closed = floyd_warshall_reference(dist)
        assert np.array_equal(floyd_warshall_reference(closed), closed)

    def test_triangle_inequality(self):
        closed = floyd_warshall_reference(rmat_weighted_dist(16, 48, seed=6))
        n = closed.shape[0]
        for k in range(n):
            assert np.all(
                closed <= closed[:, k : k + 1] + closed[k : k + 1, :]
            )

    def test_negative_weights_rejected(self):
        dist = np.zeros((4, 4), dtype=np.int64)
        dist[0, 1] = -1
        with pytest.raises(WorkloadError):
            floyd_warshall_reference(dist)

    def test_non_square_rejected(self):
        with pytest.raises(WorkloadError):
            floyd_warshall_reference(np.zeros((3, 4), dtype=np.int64))


class TestGenerator:
    def test_symmetric_with_zero_diagonal(self):
        dist = rmat_weighted_dist(32, 96, seed=7)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0)

    def test_weights_in_range(self):
        dist = rmat_weighted_dist(32, 96, max_weight=9, seed=8)
        finite = dist[(dist > 0) & (dist < INFINITE_DISTANCE)]
        assert finite.size > 0
        assert finite.min() >= 1 and finite.max() <= 9

    def test_bad_weight_rejected(self):
        with pytest.raises(WorkloadError):
            rmat_weighted_dist(16, 32, max_weight=0)


class TestDistributed:
    def test_bit_exact_on_rmat(self, backend):
        n = 4 * backend.num_dpus
        dist = rmat_weighted_dist(n, 3 * n, seed=11)
        got = distributed_floyd_warshall(dist, 2, backend)
        assert np.array_equal(got, floyd_warshall_reference(dist))

    def test_block_equals_slab(self, backend):
        """block == rows-per-DPU: one owner per round, max broadcast."""
        n = 2 * backend.num_dpus
        dist = rmat_weighted_dist(n, 3 * n, seed=12)
        got = distributed_floyd_warshall(dist, 2, backend)
        assert np.array_equal(got, floyd_warshall_reference(dist))

    def test_block_one(self, backend):
        """block == 1 degenerates to unblocked FW, one pivot per round."""
        n = 2 * backend.num_dpus
        dist = rmat_weighted_dist(n, 3 * n, seed=13)
        got = distributed_floyd_warshall(dist, 1, backend)
        assert np.array_equal(got, floyd_warshall_reference(dist))

    def test_geometry_validation(self, backend):
        n_dpus = backend.num_dpus
        with pytest.raises(WorkloadError):
            apsp_shard_geometry(n_dpus + 1, 1, n_dpus)
        with pytest.raises(WorkloadError):
            apsp_shard_geometry(4 * n_dpus, 3, n_dpus)
        with pytest.raises(WorkloadError):
            apsp_shard_geometry(4 * n_dpus, 0, n_dpus)

    @given(
        rows_per=st.sampled_from([2, 4]),
        block=st.sampled_from([1, 2]),
        edge_factor=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_rmat_property(self, rows_per, block, edge_factor, seed):
        """Blocked == reference FW on random weighted R-MAT graphs."""
        backend = registry.create("P", small_test_system())
        n = rows_per * backend.num_dpus
        dist = rmat_weighted_dist(n, edge_factor * n, seed=seed)
        got = distributed_floyd_warshall(dist, block, backend)
        assert np.array_equal(got, floyd_warshall_reference(dist))


class TestWorkloadDeclaration:
    def test_trace_shape(self, tiny_machine):
        workload = ApspWorkload(num_vertices=32, block=2)
        trace = comm_trace(workload, tiny_machine)
        rounds = 32 // 2
        assert len(trace) == 2 * rounds
        assert [e.pattern for e in trace] == ["BC", "AG"] * rounds
        # Roots walk the owners as the pivot block sweeps the slabs.
        roots = [e.root for e in trace if e.pattern == "BC"]
        assert roots == sorted(roots)
        assert set(roots) == set(range(8))

    def test_volume_matches_closed_form(self, tiny_machine):
        workload = ApspWorkload(num_vertices=32, block=2)
        volume: dict[str, int] = {}
        for entry in comm_trace(workload, tiny_machine):
            volume[entry.pattern] = (
                volume.get(entry.pattern, 0) + entry.total_bytes
            )
        assert volume == workload.expected_comm_volume(tiny_machine)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ApspWorkload(num_vertices=0)
        with pytest.raises(WorkloadError):
            ApspWorkload(block=0)


class TestScheduleChain:
    def test_every_round_validates(self):
        shape = Shape(banks=2, chips=2, ranks=2)
        rows_per, rounds = apsp_shard_geometry(32, 2, shape.num_dpus)
        for t in range(rounds):
            chain = apsp_round_chain(shape, 32, 2, t)
            # Links are barrier-separated, so per-link validation is
            # complete: cross-link contention is impossible.
            for link in chain.schedules:
                validate_schedule(link)
            assert [p.value for p in chain.patterns] == [
                "broadcast",
                "all_gather",
            ]

    def test_round_out_of_range(self):
        shape = Shape(banks=2, chips=2, ranks=2)
        with pytest.raises(WorkloadError):
            apsp_round_chain(shape, 32, 2, 16)

    def test_chain_timing_sums_links(self):
        from repro.core import schedule_timing

        shape = Shape(banks=2, chips=2, ranks=2)
        chain = apsp_round_chain(shape, 32, 2, 3)
        network = small_test_system().pimnet
        total = chain_timing(chain, network)
        by_hand: dict = {}
        for link in chain.schedules:
            for tier, t in schedule_timing(link, network).items():
                by_hand[tier] = by_hand.get(tier, 0.0) + t
        assert total == by_hand
        assert sum(total.values()) > 0

    def test_chain_rejects_mixed_shapes(self):
        from repro.core import ScheduleChain, build_schedule
        from repro.collectives.patterns import Collective

        a = build_schedule(
            Collective.BROADCAST, Shape(2, 2, 2), 16, root=0
        )
        b = build_schedule(Collective.ALL_GATHER, Shape(4, 2, 2), 16)
        with pytest.raises(ScheduleError):
            ScheduleChain((a, b))

    def test_chain_rejects_empty(self):
        from repro.core import ScheduleChain

        with pytest.raises(ScheduleError):
            ScheduleChain(())

    def test_noc_latency_band(self):
        """Flit-level NoC agrees with the analytic chain timing within
        the conformance band (rel_tol=1.0, min_ratio=0.9, slack=200)."""
        machine = small_test_system()
        shape = Shape(banks=2, chips=2, ranks=2)
        chain = apsp_round_chain(shape, 32, 2, round_index=5)
        for link in chain.schedules:
            validate_schedule(link)

        analytic_cycles = sum(
            chain_timing(chain, machine.pimnet).values()
        ) / 1e-9
        noc_cycles = 0
        for link in chain.schedules:
            net = NocNetwork(shape, network=machine.pimnet)
            messages, barriers = messages_from_schedule(
                link, net, "scheduled", itemsize=8
            )
            assert messages
            sim = NocSimulator(net, messages)
            if barriers:
                sim.set_barriers(barriers)
            stats = sim.run()
            assert stats.flits_delivered == sum(
                m.num_flits for m in messages
            )
            noc_cycles += stats.cycles

        lower = 0.9 * analytic_cycles - 200
        upper = 2.0 * analytic_cycles + 200
        assert lower <= noc_cycles <= upper, (
            f"NoC {noc_cycles} outside [{lower:.0f}, {upper:.0f}] "
            f"around analytic {analytic_cycles:.0f}"
        )
