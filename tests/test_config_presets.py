"""Machine presets: Table II / Table VI shapes."""

import pytest

from repro.config import (
    pimnet_sim_system,
    small_test_system,
    upmem_server,
)

from .conftest import total_dpus


class TestPimnetSimSystem:
    def test_table_vi_channel(self):
        machine = pimnet_sim_system()
        assert machine.system.banks_per_channel == 256
        assert machine.system.ranks_per_channel == 4
        assert machine.system.num_channels == 1

    def test_dpu_matches_table_vi(self):
        dpu = pimnet_sim_system().system.dpu
        assert dpu.frequency_hz == pytest.approx(350e6)
        assert dpu.iram_bytes == 24 * 1024
        assert dpu.wram_bytes == 64 * 1024

    def test_multi_channel_variant(self):
        machine = pimnet_sim_system(num_channels=4)
        assert machine.system.num_channels == 4
        assert total_dpus(machine.system) == 1024


class TestUpmemServer:
    def test_2560_dpus(self):
        assert total_dpus(upmem_server().system) == 2560

    def test_pim_capacity_at_least_table_ii(self):
        # Table II: 171 GB PIM-enabled memory (2560 x 64 MB = 160 GiB).
        system = upmem_server().system
        capacity = total_dpus(system) * system.dpu.mram_bytes
        assert capacity == 2560 * 64 * 1024 * 1024


class TestSmallTestSystem:
    def test_eight_dpus(self):
        machine = small_test_system()
        assert total_dpus(machine.system) == 8
        assert machine.system.banks_per_chip == 2
        assert machine.system.chips_per_rank == 2
        assert machine.system.ranks_per_channel == 2

    def test_shares_default_network(self):
        machine = small_test_system()
        assert machine.pimnet.inter_bank.bandwidth_per_channel_bytes_per_s == (
            pytest.approx(0.7e9)
        )
