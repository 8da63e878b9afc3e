"""Bank memory: DMA timing and the staging model."""

import pytest

from repro.config import DpuConfig
from repro.errors import MemoryModelError
from repro.memory import BankMemory


@pytest.fixture
def bank() -> BankMemory:
    return BankMemory(DpuConfig())


class TestDmaTiming:
    """The DMA cost that `staging_time` charges for each of its two passes
    over the WRAM overflow."""

    def test_time_grows_with_size(self, bank):
        usable = bank.config.wram_bytes - 8192
        t_small = bank.staging_time(usable + 64)
        t_large = bank.staging_time(usable + 4096)
        assert t_large > t_small

    def test_bandwidth_term(self):
        bank = BankMemory(DpuConfig(), dma_bandwidth_bytes_per_s=1e9)
        usable = bank.config.wram_bytes - 8192
        # one max-size burst per pass: setup + serialization
        assert bank.staging_time(usable + 2048) == pytest.approx(
            2 * (bank.dma_setup_s + 2048 / 1e9)
        )

    def test_multiple_bursts_pay_multiple_setups(self):
        bank = BankMemory(DpuConfig(), dma_bandwidth_bytes_per_s=1e9)
        usable = bank.config.wram_bytes - 8192
        assert bank.staging_time(usable + 4096) == pytest.approx(
            2 * (2 * bank.dma_setup_s + 4096 / 1e9)
        )

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(MemoryModelError):
            BankMemory(DpuConfig(), dma_bandwidth_bytes_per_s=0)


class TestStagingModel:
    def test_fits_in_wram_is_free(self, bank):
        assert bank.staging_time(8 * 1024) == 0.0

    def test_overflow_costs_round_trip(self, bank):
        t = bank.staging_time(128 * 1024)
        assert t > 0

    def test_staging_monotone_in_payload(self, bank):
        small = bank.staging_time(80 * 1024)
        large = bank.staging_time(160 * 1024)
        assert large > small

    def test_negative_payload_rejected(self, bank):
        with pytest.raises(MemoryModelError):
            bank.staging_time(-1)

    def test_reserved_wram_must_fit(self, bank):
        with pytest.raises(MemoryModelError):
            bank.staging_time(1024, reserved_wram=128 * 1024)
