"""Payload-rescaling replay is EXACTLY ``schedule_timing``, not close.

The profile tier is only allowed to replace fresh compilation because
its analytic replay is bit-identical: within any step every transfer
shares one length that divides the payload, so the replayed aggregates
add the same integers in the same order as the slow path (see
``repro/schedcache/profile.py`` for the full argument).  These
properties pin that claim with ``==`` — no tolerance, no ``approx`` —
across the conformance matrix's shapes, every collective, both rooted
ends, and payloads far beyond the profile's base.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.patterns import Collective
from repro.config.conformance import ConformanceConfig
from repro.config.network import PimnetNetworkConfig
from repro.core.schedule import Shape, build_schedule, schedule_timing
from repro.schedcache import (
    MAX_EXACT_BYTES,
    ScheduleCache,
    extract_profile,
)

NETWORK = PimnetNetworkConfig()
CONFORMANCE = ConformanceConfig()
#: The conformance matrix's shapes — the acceptance surface of PR 5.
SHAPES = [Shape(banks=b, chips=c, ranks=r) for b, c, r in CONFORMANCE.shapes]
COLLECTIVES = list(Collective)
ROOTED = (Collective.BROADCAST, Collective.REDUCE, Collective.GATHER)


def _fresh_times(pattern, shape, num_elements, root=0, itemsize=8):
    return schedule_timing(
        build_schedule(pattern, shape, num_elements, root),
        NETWORK,
        itemsize=itemsize,
    )


def _profile_for(pattern, shape, root=0, itemsize=8):
    return extract_profile(
        build_schedule(pattern, shape, shape.num_dpus, root),
        itemsize=itemsize,
        root=root,
    )


class TestExactReplay:
    @given(
        shape_index=st.integers(min_value=0, max_value=len(SHAPES) - 1),
        pattern=st.sampled_from(COLLECTIVES),
        k=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=200, deadline=None)
    def test_replay_equals_fresh_compilation_exactly(
        self, shape_index, pattern, k
    ):
        shape = SHAPES[shape_index]
        profile = _profile_for(pattern, shape)
        num_elements = shape.num_dpus * k
        assert profile.exact_for(num_elements)
        assert profile.times(num_elements, NETWORK) == _fresh_times(
            pattern, shape, num_elements
        )

    @pytest.mark.parametrize("pattern", ROOTED)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_nonzero_root_replays_exactly(self, pattern, shape):
        root = shape.num_dpus - 1
        profile = _profile_for(pattern, shape, root=root)
        for k in (1, 3, 64):
            num_elements = shape.num_dpus * k
            assert profile.times(num_elements, NETWORK) == _fresh_times(
                pattern, shape, num_elements, root=root
            )

    @pytest.mark.parametrize("payload_bytes", CONFORMANCE.payload_bytes)
    @pytest.mark.parametrize("pattern", COLLECTIVES)
    def test_conformance_matrix_payloads_replay_exactly(
        self, pattern, payload_bytes
    ):
        itemsize = CONFORMANCE.itemsize
        for shape in SHAPES:
            num_elements = payload_bytes // itemsize
            profile = _profile_for(pattern, shape, itemsize=itemsize)
            assert profile.times(num_elements, NETWORK) == _fresh_times(
                pattern, shape, num_elements, itemsize=itemsize
            )

    @given(
        shape_index=st.integers(min_value=0, max_value=len(SHAPES) - 1),
        pattern=st.sampled_from(COLLECTIVES),
        k=st.integers(min_value=1, max_value=512),
    )
    @settings(max_examples=50, deadline=None)
    def test_cache_timing_equals_fresh_compilation_exactly(
        self, shape_index, pattern, k
    ):
        """The same property through the full cache front door."""
        shape = SHAPES[shape_index]
        cache = ScheduleCache()
        cache.profile(pattern, shape, NETWORK)
        num_elements = shape.num_dpus * k
        assert cache.timing(
            pattern, shape, num_elements, NETWORK
        ) == _fresh_times(pattern, shape, num_elements)
        assert cache.counters.timing_replays == 1


class TestFallbackBoundaries:
    def test_out_of_model_payload_falls_back_to_fresh(self):
        """A payload past the float-exactness bound still gets the
        slow-path answer — through compilation, not replay."""
        shape = Shape(banks=2, chips=2, ranks=1)
        cache = ScheduleCache()
        cache.profile(Collective.ALL_REDUCE, shape, NETWORK)
        too_big = shape.num_dpus * (MAX_EXACT_BYTES // 8)
        assert cache.timing(
            Collective.ALL_REDUCE, shape, too_big, NETWORK
        ) == _fresh_times(Collective.ALL_REDUCE, shape, too_big)
        assert cache.counters.timing_fallbacks == 1
        assert cache.counters.timing_replays == 0

    def test_exactness_guard_rejects_astronomical_payloads(self):
        shape = SHAPES[0]
        profile = _profile_for(Collective.ALL_REDUCE, shape)
        too_big = shape.num_dpus * (MAX_EXACT_BYTES // 8)
        assert profile.supports(too_big)
        assert not profile.exact_for(too_big)

    def test_exactness_bound_is_exclusive(self):
        """A replay peak of exactly ``MAX_EXACT_BYTES`` is not exact."""
        profile = _profile_for(Collective.ALL_REDUCE, SHAPES[0])
        # Every step's peak is at most 4 bytes per element (8-byte items,
        # 2 units of E // 4), so E = 2**51 peaks at exactly 2**53 bytes.
        peak_per_element = max(
            max(s.peak_units, s.port_units, s.bus_units)
            * profile.itemsize
            / s.divisor
            for s in profile.steps
        )
        assert peak_per_element == 4
        at_bound = MAX_EXACT_BYTES // 4
        assert not profile.exact_for(at_bound)
        assert profile.exact_for(at_bound - 4)

    def test_supports_rejects_non_multiples(self):
        profile = _profile_for(Collective.ALL_TO_ALL, SHAPES[-1])
        assert profile.supports(SHAPES[-1].num_dpus * 3)
        assert not profile.supports(SHAPES[-1].num_dpus * 3 + 1)
