"""Collective request validation and reduce operators."""

import numpy as np
import pytest

from repro.collectives import (
    Collective,
    CollectiveRequest,
    REDUCING_PATTERNS,
    ReduceOp,
)
from repro.errors import CollectiveError


class TestReduceOp:
    def test_sum(self):
        a, b = np.array([1, 2]), np.array([3, 4])
        assert np.array_equal(ReduceOp.SUM.apply(a, b), [4, 6])

    def test_max(self):
        a, b = np.array([1, 5]), np.array([3, 4])
        assert np.array_equal(ReduceOp.MAX.apply(a, b), [3, 5])

    def test_min(self):
        a, b = np.array([1, 5]), np.array([3, 4])
        assert np.array_equal(ReduceOp.MIN.apply(a, b), [1, 4])


class TestRequestValidation:
    def test_payload_must_be_positive(self):
        with pytest.raises(CollectiveError):
            CollectiveRequest(Collective.ALL_REDUCE, 0)

    def test_payload_must_match_dtype(self):
        with pytest.raises(CollectiveError):
            CollectiveRequest(
                Collective.ALL_REDUCE, 10, dtype=np.dtype(np.int64)
            )

    def test_num_elements(self):
        req = CollectiveRequest(
            Collective.ALL_REDUCE, 64, dtype=np.dtype(np.int32)
        )
        assert req.num_elements == 16

    @pytest.mark.parametrize("dtype", ["int32", np.int32, np.dtype(np.int32)])
    def test_num_elements_for_every_dtype_spelling(self, dtype):
        # __post_init__ normalizes dtype once; num_elements reads it.
        req = CollectiveRequest(Collective.ALL_REDUCE, 64, dtype=dtype)
        assert req.dtype == np.dtype(np.int32)
        assert req.num_elements == 16

    def test_root_range_checked(self):
        req = CollectiveRequest(Collective.BROADCAST, 64, root=8)
        with pytest.raises(CollectiveError):
            req.validate_for(8)
        req.validate_for(16)

    def test_sharding_divisibility(self):
        req = CollectiveRequest(Collective.REDUCE_SCATTER, 64)  # 8 elements
        req.validate_for(8)
        with pytest.raises(CollectiveError):
            req.validate_for(3)

    def test_alltoall_divisibility(self):
        req = CollectiveRequest(Collective.ALL_TO_ALL, 64)
        with pytest.raises(CollectiveError):
            req.validate_for(5)

    def test_allreduce_has_no_sharding_constraint(self):
        CollectiveRequest(Collective.ALL_REDUCE, 8).validate_for(3)

    def test_reducing_patterns_set(self):
        assert Collective.ALL_REDUCE in REDUCING_PATTERNS
        assert Collective.REDUCE_SCATTER in REDUCING_PATTERNS
        assert Collective.ALL_TO_ALL not in REDUCING_PATTERNS
        assert Collective.ALL_GATHER not in REDUCING_PATTERNS
