"""Resilience experiments: degradation curves with the shapes the
common-random-numbers sampler guarantees by construction."""

import pytest

from repro.config import small_test_system
from repro.experiments import fault_sweep, straggler_tail
from repro.runner import format_tables

from .conftest import experiment_result


@pytest.fixture(scope="module")
def sweep_result():
    return experiment_result("fault_sweep", machine=small_test_system())


@pytest.fixture(scope="module")
def tail_result():
    return experiment_result("straggler_tail", machine=small_test_system())


class TestFaultSweep:
    def test_bandwidth_monotone_non_increasing(self, sweep_result):
        """Mean bandwidth never rises as the fault rate grows."""
        bandwidths = sweep_result.bandwidths
        assert all(
            later <= earlier + 1e-12
            for earlier, later in zip(bandwidths, bandwidths[1:])
        )

    def test_fault_free_point_is_clean(self, sweep_result):
        """At factor 0 every trial completes with zero fault cost."""
        assert sweep_result.completion_rates[0] == 1.0
        assert sweep_result.mean_retries[0] == 0

    def test_completion_rate_never_recovers(self, sweep_result):
        rates = sweep_result.completion_rates
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_retries_grow_with_corruption_rate(self, sweep_result):
        retries = sweep_result.mean_retries
        assert retries[0] == 0
        assert all(b >= a for a, b in zip(retries, retries[1:]))

    def test_format_table_shape(self, sweep_result):
        text = format_tables(fault_sweep.build_tables(sweep_result))
        assert "fault_sweep" in text
        assert "rate factor" in text
        assert "monotone" in text

    def test_deterministic(self):
        machine = small_test_system()
        a = experiment_result("fault_sweep", machine=machine)
        b = experiment_result("fault_sweep", machine=machine)
        assert a == b


class TestStragglerTail:
    def test_tail_grows_with_severity(self, tail_result):
        """p99 latency never shrinks as straggler severity grows."""
        p99s = tail_result.p99s
        assert all(b >= a - 1e-12 for a, b in zip(p99s, p99s[1:]))

    def test_severity_one_injects_no_visible_straggler(self, tail_result):
        assert tail_result.degraded_fractions[0] == 0.0

    def test_tail_amplification_at_least_one(self, tail_result):
        """p99/p50 at the worst severity: how unfair the tail gets."""
        assert tail_result.p50s[-1] > 0
        assert tail_result.p99s[-1] / tail_result.p50s[-1] >= 1.0

    def test_p999_dominates_p50(self, tail_result):
        for p50, p999 in zip(tail_result.p50s, tail_result.p999s):
            assert p999 >= p50

    def test_format_table_shape(self, tail_result):
        text = format_tables(straggler_tail.build_tables(tail_result))
        assert "straggler_tail" in text
        assert "severity (x)" in text
