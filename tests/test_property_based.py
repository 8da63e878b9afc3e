"""Hypothesis property tests on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    Collective,
    CollectiveRequest,
    ReduceOp,
    functional,
)
from repro.core import (
    Shape,
    allreduce_schedule,
    alltoall_schedule,
    execute_schedule,
    owned_range,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

dims = st.integers(min_value=1, max_value=4)
shapes = st.builds(Shape, banks=dims, chips=dims, ranks=dims)


@st.composite
def shape_and_buffers(draw):
    shape = draw(shapes)
    per_dpu = draw(st.integers(min_value=1, max_value=4))
    e = shape.num_dpus * per_dpu
    values = draw(
        st.lists(
            st.lists(
                st.integers(min_value=-1000, max_value=1000),
                min_size=e,
                max_size=e,
            ),
            min_size=shape.num_dpus,
            max_size=shape.num_dpus,
        )
    )
    buffers = [np.array(v, dtype=np.int64) for v in values]
    return shape, buffers


# ---------------------------------------------------------------------------
# functional collectives
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestFunctionalProperties:
    @given(data=shape_and_buffers())
    @settings(max_examples=40, deadline=None)
    def test_allreduce_invariant_sum(self, data):
        """Every output equals the element-wise sum, regardless of shape."""
        shape, buffers = data
        req = CollectiveRequest(
            Collective.ALL_REDUCE,
            buffers[0].size * 8,
            dtype=np.dtype(np.int64),
        )
        outputs = functional.execute(req, buffers)
        expected = np.sum(buffers, axis=0)
        for out in outputs:
            assert np.array_equal(out, expected)

    @given(data=shape_and_buffers())
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_concat_equals_allreduce(self, data):
        shape, buffers = data
        e = buffers[0].size
        rs = functional.execute(
            CollectiveRequest(
                Collective.REDUCE_SCATTER, e * 8, dtype=np.dtype(np.int64)
            ),
            buffers,
        )
        ar = functional.execute(
            CollectiveRequest(
                Collective.ALL_REDUCE, e * 8, dtype=np.dtype(np.int64)
            ),
            buffers,
        )
        assert np.array_equal(np.concatenate(rs), ar[0])

    @given(data=shape_and_buffers())
    @settings(max_examples=40, deadline=None)
    def test_alltoall_preserves_multiset(self, data):
        """A2A permutes data: global multiset of elements is conserved."""
        shape, buffers = data
        e = buffers[0].size
        outputs = functional.execute(
            CollectiveRequest(
                Collective.ALL_TO_ALL, e * 8, dtype=np.dtype(np.int64)
            ),
            buffers,
        )
        before = np.sort(np.concatenate(buffers))
        after = np.sort(np.concatenate(outputs))
        assert np.array_equal(before, after)

    @given(
        data=shape_and_buffers(),
        op=st.sampled_from([ReduceOp.SUM, ReduceOp.MIN, ReduceOp.MAX]),
    )
    @settings(max_examples=40, deadline=None)
    def test_allreduce_is_permutation_invariant(self, data, op):
        """Reduction result does not depend on DPU ordering."""
        shape, buffers = data
        e = buffers[0].size
        req = CollectiveRequest(
            Collective.ALL_REDUCE, e * 8, dtype=np.dtype(np.int64), op=op
        )
        forward = functional.execute(req, buffers)
        backward = functional.execute(req, list(reversed(buffers)))
        assert np.array_equal(forward[0], backward[0])


# ---------------------------------------------------------------------------
# static schedules
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestScheduleProperties:
    @given(data=shape_and_buffers())
    @settings(max_examples=25, deadline=None)
    def test_allreduce_schedule_matches_functional(self, data):
        shape, buffers = data
        e = buffers[0].size
        out = execute_schedule(allreduce_schedule(shape, e), buffers)
        expected = np.sum(buffers, axis=0)
        for buf in out:
            assert np.array_equal(buf, expected)

    @given(data=shape_and_buffers())
    @settings(max_examples=25, deadline=None)
    def test_alltoall_schedule_matches_functional(self, data):
        shape, buffers = data
        e = buffers[0].size
        out = execute_schedule(alltoall_schedule(shape, e), buffers)
        ref = functional.execute(
            CollectiveRequest(
                Collective.ALL_TO_ALL, e * 8, dtype=np.dtype(np.int64)
            ),
            buffers,
        )
        for a, b in zip(out, ref):
            assert np.array_equal(a, b)

    @given(shape=shapes, per_dpu=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_owned_ranges_partition_vector(self, shape, per_dpu):
        e = shape.num_dpus * per_dpu
        seen = np.zeros(e, dtype=bool)
        for d in range(shape.num_dpus):
            off, length = owned_range(shape, e, d)
            assert not seen[off : off + length].any()
            seen[off : off + length] = True
        assert seen.all()

