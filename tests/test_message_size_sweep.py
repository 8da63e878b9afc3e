"""Message-size sensitivity sweep."""

import pytest

from repro.experiments import message_size_sweep
from repro.runner import format_tables

from .conftest import experiment_result


@pytest.fixture(scope="module")
def panels():
    return experiment_result("size_sweep")


@pytest.fixture(scope="module")
def allreduce(panels):
    return panels[0]


class TestSweepStructure:
    def test_all_backends_all_sizes(self, allreduce):
        assert set(allreduce.times_s) == {"B", "S", "D", "P"}
        for times in allreduce.times_s.values():
            assert len(times) == len(allreduce.payloads)

    def test_times_monotone_in_payload(self, allreduce):
        for times in allreduce.times_s.values():
            assert all(b > a for a, b in zip(times, times[1:]))


class TestRegimes:
    def test_small_messages_are_latency_dominated(self, allreduce):
        """At 256 B the baseline's fixed host overheads dominate, so the
        PIMnet gain is largest there."""
        speedups = allreduce.speedup_series()["P"]
        assert speedups[0] == max(speedups)

    def test_large_messages_settle_to_bandwidth_ratio(self, allreduce):
        """Beyond WRAM-scale payloads the gain converges to the
        bandwidth (plus staging) ratio."""
        speedups = allreduce.speedup_series()["P"]
        assert speedups[-1] == pytest.approx(speedups[-2], rel=0.25)

    def test_pimnet_wins_at_every_size(self, allreduce):
        assert all(s > 1 for s in allreduce.speedup_series()["P"])

    def test_alltoall_gain_smaller_everywhere(self, allreduce, panels):
        a2a = panels[1]
        ar_speedups = allreduce.speedup_series()["P"]
        a2a_speedups = a2a.speedup_series()["P"]
        # compare at bandwidth-dominated sizes (small ones are
        # overhead-dominated for both patterns alike)
        assert a2a_speedups[-1] < ar_speedups[-1]


class TestFormatting:
    def test_table_renders(self, panels):
        text = format_tables(message_size_sweep.build_tables(panels))
        assert "Size sweep" in text
        assert "1024 KiB" in text
