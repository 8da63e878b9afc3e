"""NoC load-latency study."""

import pytest

from repro.experiments import noc_load_latency
from repro.runner import format_tables

from .conftest import experiment_result


@pytest.fixture(scope="module")
def result():
    return experiment_result("noc_load_latency")


class TestLoadLatencyCurve:
    def test_latency_monotone_in_offered_load(self, result):
        lat = result.mean_latency_cycles
        assert all(b >= a for a, b in zip(lat, lat[1:]))

    def test_saturation_regime_reached(self, result):
        """Latency at the top rate well above the low-load latency."""
        lat = result.mean_latency_cycles
        assert lat[-1] > 2 * lat[0]

    def test_completion_time_shrinks_with_rate(self, result):
        """Higher injection rate = denser schedule = earlier completion
        (the latency cost is per-message queueing, not total time)."""
        comp = result.completion_cycles
        assert comp[0] > comp[-1]

    def test_deterministic(self):
        a = experiment_result("noc_load_latency", seed=3)
        b = experiment_result("noc_load_latency", seed=3)
        assert a.mean_latency_cycles == b.mean_latency_cycles

    def test_format(self, result):
        text = format_tables(noc_load_latency.build_tables(result))
        assert "load-latency" in text
