"""System configuration: shape math and validation."""

import pytest

from repro.config import DpuConfig, HostConfig, PimSystemConfig
from repro.errors import ConfigurationError

from .conftest import total_dpus


class TestDpuConfig:
    def test_upmem_defaults(self):
        dpu = DpuConfig()
        assert dpu.frequency_hz == pytest.approx(350e6)
        assert dpu.num_hw_tasklets == 24
        assert dpu.wram_bytes == 64 * 1024
        assert dpu.iram_bytes == 24 * 1024
        assert dpu.mram_bytes == 64 * 1024 * 1024

    def test_cycle_time(self):
        assert DpuConfig().cycle_time_s == pytest.approx(1 / 350e6)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ConfigurationError):
            DpuConfig(frequency_hz=0)

    def test_rejects_bad_tasklet_threshold(self):
        with pytest.raises(ConfigurationError):
            DpuConfig(min_tasklets_full_throughput=25)

    def test_rejects_zero_wram(self):
        with pytest.raises(ConfigurationError):
            DpuConfig(wram_bytes=0)

    def test_rejects_nan_and_inf_frequency(self):
        # NaN slips through a bare `<= 0` check (all NaN comparisons
        # are false) and would propagate into every cycle conversion.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                DpuConfig(frequency_hz=bad)

    def test_rejects_nan_memory_sizes(self):
        with pytest.raises(ConfigurationError):
            DpuConfig(mram_bytes=float("nan"))


class TestPimSystemConfig:
    def test_table_vi_shape(self):
        system = PimSystemConfig()
        assert system.banks_per_chip == 8
        assert system.chips_per_rank == 8
        assert system.ranks_per_channel == 4
        assert system.banks_per_rank == 64
        assert system.banks_per_channel == 256
        assert total_dpus(system) == 256

    def test_pim_memory_capacity(self):
        system = PimSystemConfig()
        capacity = total_dpus(system) * system.dpu.mram_bytes
        assert capacity == 256 * 64 * 1024 * 1024

    def test_rejects_zero_banks(self):
        with pytest.raises(ConfigurationError):
            PimSystemConfig(banks_per_chip=0)

    def test_rejects_nan_counts(self):
        with pytest.raises(ConfigurationError):
            PimSystemConfig(chips_per_rank=float("nan"))

    @pytest.mark.parametrize(
        "dpus,expected",
        [
            (8, (8, 1, 1)),
            (16, (8, 2, 1)),
            (64, (8, 8, 1)),
            (128, (8, 8, 2)),
            (256, (8, 8, 4)),
            (4, (4, 1, 1)),
            (1, (1, 1, 1)),
        ],
    )
    def test_scaled_to_dpus(self, dpus, expected):
        scaled = PimSystemConfig().scaled_to_dpus(dpus)
        assert (
            scaled.banks_per_chip,
            scaled.chips_per_rank,
            scaled.ranks_per_channel,
        ) == expected
        assert total_dpus(scaled) == dpus

    def test_scaled_beyond_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            PimSystemConfig().scaled_to_dpus(512)

    def test_scaled_uneven_rejected(self):
        with pytest.raises(ConfigurationError):
            PimSystemConfig().scaled_to_dpus(12)  # does not fill 8-bank chips

    def test_scaled_keeps_dpu_config(self):
        base = PimSystemConfig()
        assert base.scaled_to_dpus(8).dpu == base.dpu


class TestHostConfig:
    def test_defaults_are_positive(self):
        host = HostConfig()
        assert host.num_cores == 16
        assert host.frequency_hz == pytest.approx(4e9)
        assert host.reduce_bandwidth_bytes_per_s > 0

    def test_rejects_negative_overhead(self):
        with pytest.raises(ConfigurationError):
            HostConfig(kernel_launch_overhead_s=-1e-6)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            HostConfig(num_cores=0)

    def test_rejects_nan_overheads_and_bandwidth(self):
        nan = float("nan")
        for kwargs in (
            {"frequency_hz": nan},
            {"reduce_bandwidth_bytes_per_s": nan},
            {"kernel_launch_overhead_s": nan},
            {"transfer_setup_overhead_s": nan},
            {"per_rank_transfer_overhead_s": nan},
        ):
            with pytest.raises(ConfigurationError):
                HostConfig(**kwargs)
