"""The shared quantile sketch: exactness, bucketing, merge, round-trip.

The hypothesis block pins the two contracts everything else leans on:
merge is associative/commutative in every reported statistic, and a
bucketed quantile stays within one bucket's relative error
(``10**(1/buckets_per_decade) - 1``) of the exact nearest-rank answer
computed independently via numpy.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObservabilityError
from repro.observability.histo import (
    DEFAULT_BUCKETS_PER_DECADE,
    DEFAULT_MAX_EXACT,
    LogBucketSketch,
    nearest_rank,
)


def _exact_percentile(values, q):
    """Independent nearest-rank reference on a numpy-sorted array."""
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class TestNearestRank:
    def test_matches_numpy_ordering(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        ordered = sorted(values)
        for q in (1, 25, 50, 75, 99, 100):
            assert nearest_rank(ordered, q) == _exact_percentile(values, q)

    def test_rejects_bad_q_and_empty(self):
        with pytest.raises(ObservabilityError, match="quantile q"):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ObservabilityError, match="quantile q"):
            nearest_rank([1.0], 101.0)
        with pytest.raises(ObservabilityError, match="empty"):
            nearest_rank([], 50.0)


class TestExactMode:
    def test_small_samples_are_exact(self):
        sketch = LogBucketSketch()
        values = [0.4, 12.0, 0.004, 3.0, 3.0, 99.0]
        for v in values:
            sketch.observe(v)
        assert sketch.samples is not None
        for q in (10, 50, 90, 99, 100):
            assert sketch.quantile(q) == _exact_percentile(values, q)

    def test_summary_stats(self):
        sketch = LogBucketSketch()
        for v in (1.0, 2.0, 3.0):
            sketch.observe(v)
        assert sketch.count == 3
        assert sketch.sum == pytest.approx(6.0)
        assert sketch.min == 1.0 and sketch.max == 3.0
        assert sketch.mean == pytest.approx(2.0)

    def test_rejects_non_finite(self):
        sketch = LogBucketSketch()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ObservabilityError, match="non-finite"):
                sketch.observe(bad)

    def test_empty_sketch(self):
        sketch = LogBucketSketch()
        assert sketch.count == 0
        assert sketch.quantile(50) is None
        assert sketch.snapshot() == {"count": 0}


class TestBucketedMode:
    def test_collapses_past_the_cap(self):
        sketch = LogBucketSketch(max_exact=10)
        for i in range(11):
            sketch.observe(1.0 + i)
        assert sketch.samples is None
        assert sketch.count == 11

    def test_bucketed_quantile_error_is_bounded(self):
        sketch = LogBucketSketch(max_exact=10)
        rng = np.random.default_rng(7)
        values = list(rng.lognormal(mean=-7.0, sigma=2.0, size=2000))
        for v in values:
            sketch.observe(v)
        bound = 10 ** (1 / DEFAULT_BUCKETS_PER_DECADE)
        for q in (50, 90, 99, 99.9):
            exact = _exact_percentile(values, q)
            estimate = sketch.quantile(q)
            assert exact * (1 - 1e-9) <= estimate <= exact * bound * (
                1 + 1e-9
            )

    def test_quantile_clamped_to_observed_range(self):
        sketch = LogBucketSketch(max_exact=2)
        for v in (1.0, 1.5, 2.0, 2.5):
            sketch.observe(v)
        assert sketch.quantile(100) <= sketch.max
        assert sketch.quantile(1) >= sketch.min

    def test_nonpositive_values_use_the_underflow_bucket(self):
        sketch = LogBucketSketch(max_exact=2)
        for v in (-1.0, 0.0, -2.0, 5.0):
            sketch.observe(v)
        assert sketch.samples is None
        assert sketch.min == -2.0
        # Half the mass is nonpositive, so p50 resolves to the minimum.
        assert sketch.quantile(50) == -2.0


class TestMerge:
    def test_merge_stays_exact_under_the_cap(self):
        a, b = LogBucketSketch(), LogBucketSketch()
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (3.0, 4.0):
            b.observe(v)
        a.merge(b)
        assert a.samples is not None
        assert a.count == 4
        assert a.quantile(100) == 4.0

    def test_merge_collapses_when_combined_count_overflows(self):
        a = LogBucketSketch(max_exact=3)
        b = LogBucketSketch(max_exact=3)
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (3.0, 4.0):
            b.observe(v)
        a.merge(b)
        assert a.samples is None
        assert a.count == 4

    def test_merge_rejects_mismatched_resolution(self):
        a = LogBucketSketch(buckets_per_decade=64)
        b = LogBucketSketch(buckets_per_decade=32)
        with pytest.raises(ObservabilityError, match="bucket resolutions"):
            a.merge(b)

    def test_merge_empty_is_identity(self):
        a = LogBucketSketch()
        a.observe(1.0)
        before = a.to_dict()
        a.merge(LogBucketSketch())
        assert a.to_dict() == before


class TestRoundTrip:
    @pytest.mark.parametrize("cap", [DEFAULT_MAX_EXACT, 4])
    def test_to_dict_json_round_trips(self, cap):
        sketch = LogBucketSketch(max_exact=cap)
        for v in (0.001, 0.5, 7.0, 7.0, 4200.0, -1.0):
            sketch.observe(v)
        wire = json.loads(json.dumps(sketch.to_dict()))
        clone = LogBucketSketch.from_dict(wire)
        assert clone.to_dict() == sketch.to_dict()
        for q in (50, 99):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_cumulative_buckets_end_at_inf(self):
        sketch = LogBucketSketch(max_exact=2)
        for v in (0.5, 1.0, 2.0, 80.0):
            sketch.observe(v)
        cumulative = sketch.cumulative_buckets()
        uppers = [u for u, _ in cumulative]
        counts = [c for _, c in cumulative]
        assert uppers == sorted(uppers)
        assert uppers[-1] == math.inf
        assert counts == sorted(counts)
        assert counts[-1] == sketch.count


# --------------------------------------------------------------------------
# Property tests (the ISSUE-mandated contracts).
# --------------------------------------------------------------------------

_positive_floats = st.floats(
    min_value=1e-9,
    max_value=1e9,
    allow_nan=False,
    allow_infinity=False,
)
_sample_lists = st.lists(_positive_floats, min_size=1, max_size=60)


def _fill(values, cap=8):
    sketch = LogBucketSketch(max_exact=cap)
    for v in values:
        sketch.observe(v)
    return sketch


def _stats(sketch):
    """Everything merge must preserve, order-independently."""
    return (
        sketch.count,
        pytest.approx(sketch.sum, rel=1e-9),
        sketch.min,
        sketch.max,
        tuple(
            pytest.approx(sketch.quantile(q), rel=1e-12)
            for q in (50, 90, 99, 99.9)
        ),
        sketch.samples is None,
    )


class TestMergeProperties:
    @given(a=_sample_lists, b=_sample_lists)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_commutative(self, a, b):
        ab = _fill(a).merge(_fill(b))
        ba = _fill(b).merge(_fill(a))
        assert _stats(ab) == _stats(ba)

    @given(a=_sample_lists, b=_sample_lists, c=_sample_lists)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = _fill(a).merge(_fill(b)).merge(_fill(c))
        right = _fill(b).merge(_fill(c))
        right = _fill(a).merge(right)
        assert _stats(left) == _stats(right)

    @given(values=st.lists(_positive_floats, min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_quantiles_within_one_bucket_of_numpy(self, values):
        sketch = _fill(values, cap=4)
        bound = 10 ** (1 / sketch.buckets_per_decade)
        for q in (50, 90, 99, 99.9):
            exact = _exact_percentile(values, q)
            estimate = sketch.quantile(q)
            if sketch.samples is not None:
                assert estimate == exact
            else:
                assert exact * (1 - 1e-9) <= estimate
                assert estimate <= exact * bound * (1 + 1e-9)
