"""AllGather / Reduce / Gather static schedules (Section V-E extensions)."""

import numpy as np
import pytest

from repro.collectives import Collective, CollectiveRequest, ReduceOp, functional
from repro.core import (
    Shape,
    Tier,
    allgather_schedule,
    execute_schedule,
    gather_schedule,
    reduce_schedule,
)
from repro.errors import ScheduleError

from .conftest import make_buffers

SHAPES = [
    Shape(2, 2, 2),
    Shape(4, 2, 2),
    Shape(2, 3, 2),
    Shape(8, 1, 1),
    Shape(1, 1, 4),
    Shape(1, 4, 1),
]


class TestAllGatherSchedule:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_reference(self, shape, rng):
        e = 4
        buffers = make_buffers(shape.num_dpus, e, rng)
        out = execute_schedule(allgather_schedule(shape, e), buffers)
        ref = functional.execute(
            CollectiveRequest(
                Collective.ALL_GATHER, e * 8, dtype=np.dtype(np.int64)
            ),
            buffers,
        )
        for a, b in zip(out, ref):
            assert np.array_equal(a, b)

    def test_table_v_phase_order(self):
        sched = allgather_schedule(Shape(2, 2, 2), 4)
        tiers = [p.tier for p in sched.phases]
        assert tiers == [Tier.LOCAL, Tier.RANK, Tier.CHIP, Tier.BANK]

    def test_rank_phase_is_broadcast(self):
        sched = allgather_schedule(Shape(2, 2, 2), 4)
        rank = [p for p in sched.phases if p.tier is Tier.RANK][0]
        assert rank.algorithm == "broadcast"

    def test_output_extent_is_n_times_e(self, rng):
        shape = Shape(2, 2, 1)
        buffers = make_buffers(shape.num_dpus, 4, rng)
        out = execute_schedule(allgather_schedule(shape, 4), buffers)
        assert all(o.size == shape.num_dpus * 4 for o in out)


class TestReduceSchedule:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("root", [0, 3])
    def test_root_holds_reduction(self, shape, root, rng):
        root = root % shape.num_dpus
        e = shape.num_dpus * 4
        buffers = make_buffers(shape.num_dpus, e, rng)
        out = execute_schedule(
            reduce_schedule(shape, e, root=root), buffers
        )
        assert np.array_equal(out[root], np.sum(buffers, axis=0))

    def test_min_op(self, rng):
        shape = Shape(2, 2, 1)
        e = 8
        buffers = make_buffers(shape.num_dpus, e, rng)
        out = execute_schedule(
            reduce_schedule(shape, e, root=2), buffers, op=ReduceOp.MIN
        )
        assert np.array_equal(out[2], np.min(buffers, axis=0))

    def test_funnel_phases_locality_ordered(self):
        sched = reduce_schedule(Shape(2, 2, 2), 8, root=0)
        names = [p.name for p in sched.phases]
        assert names.index("bank-funnel") < names.index("chip-funnel")
        assert names.index("chip-funnel") < names.index("rank-funnel")

    def test_invalid_root(self):
        with pytest.raises(ScheduleError):
            reduce_schedule(Shape(2, 2, 2), 8, root=8)


class TestGatherSchedule:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_root_holds_concatenation(self, shape, rng):
        e = 4
        buffers = make_buffers(shape.num_dpus, e, rng)
        out = execute_schedule(gather_schedule(shape, e, root=0), buffers)
        assert np.array_equal(out[0], np.concatenate(buffers))

    def test_nonzero_root(self, rng):
        shape = Shape(2, 2, 2)
        buffers = make_buffers(8, 4, rng)
        out = execute_schedule(gather_schedule(shape, 4, root=5), buffers)
        assert np.array_equal(out[5], np.concatenate(buffers))

    def test_funnel_transfers_target_root_only(self):
        root = 3
        sched = gather_schedule(Shape(2, 2, 2), 4, root=root)
        for phase in sched.phases:
            if phase.tier is Tier.LOCAL:
                continue
            for step in phase.steps:
                for t in step.transfers:
                    assert t.dst == root

    def test_invalid_root(self):
        with pytest.raises(ScheduleError):
            gather_schedule(Shape(2, 2, 2), 8, root=-1)

