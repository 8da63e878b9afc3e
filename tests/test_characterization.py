"""Host-link characterization experiment."""

import pytest

from repro.experiments import characterization
from repro.runner import format_tables

from .conftest import experiment_result


@pytest.fixture(scope="module")
def result():
    return experiment_result("characterization")


class TestBandwidthCurves:
    def test_effective_bandwidth_monotone_in_size(self, result):
        for series in (
            result.gather_gbs, result.scatter_gbs, result.broadcast_gbs,
        ):
            assert all(b > a for a, b in zip(series, series[1:]))

    def test_asymptotes_approach_measured_peaks(self, result):
        assert result.gather_gbs[-1] == pytest.approx(4.74, rel=0.02)
        assert result.scatter_gbs[-1] == pytest.approx(6.68, rel=0.02)
        assert result.broadcast_gbs[-1] == pytest.approx(16.88, rel=0.05)

    def test_small_transfers_crushed_by_overheads(self, result):
        assert result.gather_gbs[0] < 0.5

    def test_transposition_penalty_reported(self, result):
        assert result.transposed_gather_gbs == pytest.approx(
            4.74 * 0.35, rel=0.01
        )

    def test_format(self, result):
        text = format_tables(characterization.build_tables(result))
        assert "Host-link characterization" in text
