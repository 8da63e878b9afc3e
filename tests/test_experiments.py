"""Experiment drivers: every figure/table runs and shows the paper's shape."""

import pytest

from repro.experiments import (
    fig02_roofline,
    fig03_motivation,
    fig10_applications,
    fig11_comm_breakdown,
    fig13_flow_control,
    fig17_multitenancy,
    hw_overhead,
    table04_tiers,
    table05_algorithms,
)
from repro.runner import REGISTRY, format_tables

from .conftest import experiment_result


class TestRegistry:
    def test_every_figure_has_a_driver(self):
        expected = {
            "fig02", "fig03", "table04", "table05", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "hw_overhead", "ablations", "size_sweep",
            "characterization", "noc_load_latency",
            "fault_sweep", "straggler_tail", "tenant_service_load",
            "fleet_resilience", "prim_suite",
        }
        assert set(REGISTRY.ids()) == expected


class TestFig02:
    def test_ceiling_ratio_near_8x(self):
        result = fig02_roofline.run()
        assert 5 <= result.ceiling_ratio() <= 12

    def test_format(self):
        text = format_tables(
            fig02_roofline.build_tables(fig02_roofline.run())
        )
        assert "Fig 2a" in text and "Fig 2b" in text


class TestFig03:
    @pytest.fixture(scope="class")
    def panels(self):
        return experiment_result("fig03")

    def test_allreduce_throughput_scales(self, panels):
        rel = panels[0].normalized_throughput()
        # PIMnet keeps scaling; baseline saturates
        assert rel["P"][-1] > 10 * rel["P"][0]
        assert rel["B"][-1] < 2 * rel["B"][0]

    def test_allreduce_ordering_at_256_dpus(self, panels):
        """Fig 3a: at 256 DPUs, PIMnet > Software(Ideal) > Baseline."""
        rel = panels[0].normalized_throughput()
        assert rel["P"][-1] > rel["S"][-1] > rel["B"][-1]

    def test_software_flatlines_beyond_64(self, panels):
        rel = panels[0].normalized_throughput()["S"]
        assert rel[-1] == pytest.approx(rel[-2], rel=0.1)

    def test_alltoall_benefit_smaller(self, panels):
        ar, a2a = panels
        assert (
            a2a.normalized_throughput()["P"][-1]
            < ar.normalized_throughput()["P"][-1]
        )

    def test_alltoall_pimnet_at_256_beats_baseline_at_8(self, panels):
        assert panels[1].normalized_throughput()["P"][-1] > 1

    def test_format(self, panels):
        text = format_tables(fig03_motivation.build_tables(panels))
        assert "Fig 3a" in text


class TestExperimentTable:
    def test_row_width_mismatch_fails_at_construction(self):
        from repro.errors import ReproError
        from repro.experiments.common import ExperimentTable

        with pytest.raises(ReproError) as excinfo:
            ExperimentTable("X", "t", ("a", "b"), ((1,),))
        msg = str(excinfo.value)
        assert "row 0" in msg and "width 1" in msg and "width 2" in msg

    def test_only_the_offending_row_is_reported(self):
        from repro.errors import ReproError
        from repro.experiments.common import ExperimentTable

        with pytest.raises(ReproError) as excinfo:
            ExperimentTable(
                "X", "t", ("a", "b"), ((1, 2), (3, 4), (5, 6, 7))
            )
        assert "row 2" in str(excinfo.value)

    def test_well_formed_table_constructs_and_formats(self):
        from repro.experiments.common import ExperimentTable

        table = ExperimentTable("X", "t", ("a", "b"), ((1, 2),))
        assert "== X: t ==" in table.format()


class TestTables:
    def test_table04_aggregate_bandwidths(self):
        result = table04_tiers.run()
        assert result.chip_bisection_gbs == pytest.approx(2.8)
        assert result.rank_interbank_bisection_gbs == pytest.approx(22.4)
        assert result.rank_aggregate_gbs == pytest.approx(179.2)
        assert "Table IV" in format_tables(table04_tiers.build_tables(result))

    def test_table05_all_patterns(self):
        result = table05_algorithms.run()
        assert len(result) == 5
        text = format_tables(table05_algorithms.build_tables(result))
        assert "Permutation(inter-chip)" in text


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return experiment_result("fig10")

    def test_all_workloads_present(self, result):
        assert set(result.results) >= {
            "BFS", "CC", "MLP", "GEMV", "SpMV", "NTT", "Join",
        }

    def test_pimnet_wins_everywhere(self, result):
        for name in result.results:
            assert result.speedup(name) > 1.0

    def test_max_speedup_near_11_8(self, result):
        _, value = result.max_speedup()
        assert 8 <= value <= 13

    def test_format(self, result):
        text = format_tables(fig10_applications.build_tables(result))
        assert "Fig 10" in text


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return experiment_result("fig11")

    def test_pimnet_beats_reference_everywhere(self, result):
        for entry in result.entries:
            assert entry.comm_speedup > 1.0

    def test_a2a_workloads_normalized_to_ndpbridge(self, result):
        refs = {e.workload: e.reference_backend for e in result.entries}
        assert refs["NTT"] == "N"
        assert refs["Join"] == "N"
        assert refs["CC"] == "D"

    def test_format(self, result):
        tables = fig11_comm_breakdown.build_tables(result)
        assert "Fig 11" in format_tables(tables)


class TestFig12:
    @pytest.fixture(scope="class")
    def panels(self):
        return experiment_result("fig12")

    def test_allreduce_speedup_grows(self, panels):
        p = panels[0].speedups["P"]
        assert p[-1] > p[0]
        assert p[-1] > 20

    def test_alltoall_speedup_flattens(self, panels):
        p = panels[1].speedups["P"]
        assert p[-1] < 0.6 * panels[0].speedups["P"][-1]

    def test_alltoall_pimnet_beats_software(self, panels):
        a2a = panels[1].speedups
        assert a2a["P"][-1] > a2a["S"][-1]

    def test_ndpbridge_only_in_a2a(self, panels):
        ar, a2a = panels
        assert "N" not in ar.speedups
        assert "N" in a2a.speedups


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return experiment_result("fig14")

    def test_min_interbank_speedup_at_least_3x(self, result):
        """Paper: PIMnet >= 3x DIMM-Link even at 0.1 GB/s."""
        assert min(row[2] for row in result.inter_bank) >= 2.5

    def test_speedup_monotone_in_bandwidth(self, result):
        speedups = [row[2] for row in result.inter_bank]
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))

    def test_pimnet_beats_dimmlink_even_at_quarter_global(self, result):
        assert all(row[2] > 1.0 for row in result.global_bw)


class TestFig15:
    def test_benefit_grows_with_compute_throughput(self):
        result = experiment_result("fig15")
        for workload in ("MLP", "NTT"):
            row = result.speedups[workload]
            assert row["UPMEM"] < row["HBM-PIM"] <= row["GDDR6-AiM"] * 1.01
        assert result.gain("MLP") > 5


class TestFig16:
    def test_speedup_grows_with_channels(self):
        result = experiment_result("fig16")
        speedups = result.speedups()
        assert speedups[-1] > speedups[0]
        assert all(s > 1 for s in speedups)


class TestFig17:
    def test_pimnet_isolates(self):
        result = fig17_multitenancy.run()
        assert result.isolation_benefit() > 1.2


class TestHwOverhead:
    def test_report_and_format(self):
        report = hw_overhead.run()
        text = format_tables(hw_overhead.build_tables(report))
        assert "HW overhead" in text
        assert report.router_to_stop_area_ratio > 60


@pytest.mark.slow
class TestFig13:
    def test_flow_control_directions(self):
        result = experiment_result("fig13")
        # AR near parity; A2A favors scheduling
        assert abs(result.reduction_percent("allreduce")) < 15
        assert result.reduction_percent("alltoall") > 0
        tables = fig13_flow_control.build_tables(result)
        assert "Fig 13" in format_tables(tables)
