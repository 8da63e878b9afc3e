"""Phase-level compute model and its consistency with the interpreter oracle."""

import numpy as np
import pytest

from repro.config import DpuConfig, Op, gddr6_aim_profile, upmem_profile
from repro.dpu import ComputeModel, OpCounts
from repro.errors import WorkloadError

from .dpu_oracle import Dpu, vector_add_kernel


@pytest.fixture
def model() -> ComputeModel:
    return ComputeModel(dpu=DpuConfig(), profile=upmem_profile())


class TestOpCounts:
    def test_merge_adds_counts(self):
        a = OpCounts(counts={Op.INT_ADD: 10}, mram_read_bytes=100)
        b = OpCounts(counts={Op.INT_ADD: 5, Op.INT_MUL: 2})
        merged = a.merged(b)
        assert merged.counts[Op.INT_ADD] == 15
        assert merged.counts[Op.INT_MUL] == 2
        assert merged.mram_read_bytes == 100

    def test_scaled(self):
        work = OpCounts(counts={Op.INT_ADD: 4}, mram_write_bytes=8)
        scaled = work.scaled(2.5)
        assert scaled.counts[Op.INT_ADD] == 10
        assert scaled.mram_write_bytes == 20

    def test_negative_counts_rejected(self):
        with pytest.raises(WorkloadError):
            OpCounts(counts={Op.INT_ADD: -1})

    def test_negative_scale_rejected(self):
        with pytest.raises(WorkloadError):
            OpCounts(counts={}).scaled(-1)


class TestComputeModel:
    def test_mul_heavy_phase_slower(self, model):
        adds = OpCounts(counts={Op.INT_ADD: 10_000})
        muls = OpCounts(counts={Op.INT_MUL: 10_000})
        assert model.phase_time_s(muls) > 10 * model.phase_time_s(adds)

    def test_dma_bound_phase(self, model):
        work = OpCounts(
            counts={Op.INT_ADD: 10}, mram_read_bytes=64 * 1024 * 1024
        )
        t = model.phase_time_s(work)
        assert t >= 64 * 1024 * 1024 / model.dma_bandwidth_bytes_per_s

    def test_memory_scale_speeds_up_dma(self):
        work = OpCounts(counts={}, mram_read_bytes=1e9)
        slow = ComputeModel(dpu=DpuConfig(), profile=upmem_profile())
        fast = ComputeModel(dpu=DpuConfig(), profile=gddr6_aim_profile())
        assert fast.phase_time_s(work) < slow.phase_time_s(work) / 10

    def test_tasklet_count_validated(self):
        with pytest.raises(WorkloadError):
            ComputeModel(
                dpu=DpuConfig(), profile=upmem_profile(), num_tasklets=0
            )

    def test_peak_ops_per_s(self, model):
        assert model.peak_ops_per_s() == pytest.approx(350e6)


class TestModelVsInterpreter:
    def test_vector_add_slot_prediction(self, rng):
        """The analytic model's issue slots track the interpreter's.

        The kernel executes ~9 instructions per element (index math,
        loads, add, store, loop control); the model counts the abstract
        ops (2 loads, 1 add, 1 store).  The interpreter's total must lie
        within a small constant factor of the abstract count — this
        pins the model's scale to executable ground truth.
        """
        n = 128
        dpu = Dpu()
        a = rng.integers(0, 100, n).astype(np.uint32)
        dpu.words(0, a.size)[:] = a
        dpu.words(2048, a.size)[:] = a
        result = dpu.run(
            vector_add_kernel(0, 2048, 4096),
            num_tasklets=16,
            init_registers={
                t: {1: 16, 2: n} for t in range(16)
            },
        )
        model = ComputeModel(
            dpu=DpuConfig(), profile=upmem_profile(), num_tasklets=16
        )
        abstract = OpCounts(
            counts={Op.LOAD: n * 2, Op.INT_ADD: n, Op.STORE: n}
        )
        predicted_slots = model.issue_slots(abstract)
        assert predicted_slots <= result.issue_slots <= 4 * predicted_slots
