"""The full functional machine: host -> kernel -> PIMnet -> host."""

import numpy as np
import pytest

from repro.collectives import Collective
from repro.config import small_test_system
from repro.dpu import reduce_sum_kernel, vector_add_kernel
from repro.errors import WorkloadError
from repro.machine import PimMachine


@pytest.fixture
def machine_obj() -> PimMachine:
    return PimMachine(small_test_system())


class TestStaging:
    def test_wram_round_trip(self, machine_obj, rng):
        machine_obj.runtime.allocate("buf", 1024)
        arrays = [
            rng.integers(0, 50, 16, dtype=np.int64) for _ in range(8)
        ]
        machine_obj.runtime.push("buf", arrays)
        t_in = machine_obj.stage_to_wram("buf", 128)
        assert t_in > 0
        # mutate WRAM then write back
        for bank in machine_obj.runtime.banks:
            data = bank.wram.read_array(0, 16, np.int64)
            bank.wram.write_array(0, data * 2)
        machine_obj.stage_to_mram("buf", 128)
        pulled, _ = machine_obj.runtime.pull("buf", 16, np.int64)
        for sent, got in zip(arrays, pulled):
            assert np.array_equal(got, sent * 2)

    def test_stage_length_validated(self, machine_obj):
        machine_obj.runtime.allocate("buf", 64)
        with pytest.raises(WorkloadError):
            machine_obj.stage_to_wram("buf", 128)


class TestKernels:
    def test_same_program_runs_everywhere(self, machine_obj, rng):
        n = 16
        a = rng.integers(0, 100, n).astype(np.uint32)
        b = rng.integers(0, 100, n).astype(np.uint32)
        for bank in machine_obj.runtime.banks:
            bank.wram.write_array(0, a)
            bank.wram.write_array(256, b)
        launch = machine_obj.run_kernel(
            vector_add_kernel(0, 256, 512),
            num_tasklets=4,
            init_registers={t: {1: 4, 2: n} for t in range(4)},
        )
        assert len(launch.per_dpu) == 8
        assert launch.time_s > launch.slowest_s  # + launch overhead
        for bank in machine_obj.runtime.banks:
            out = bank.wram.read_array(512, n, np.uint32)
            assert np.array_equal(out, a + b)


class TestPimnetOnMram:
    def test_allreduce_in_place(self, machine_obj, rng):
        machine_obj.runtime.allocate("buf", 1024)
        arrays = [
            rng.integers(0, 50, 16, dtype=np.int64) for _ in range(8)
        ]
        machine_obj.runtime.push("buf", arrays)
        time_s = machine_obj.pimnet_collective(
            Collective.ALL_REDUCE, "buf", 16
        )
        assert time_s > 0
        pulled, _ = machine_obj.runtime.pull("buf", 16, np.int64)
        expected = np.sum(arrays, axis=0)
        for got in pulled:
            assert np.array_equal(got, expected)

    def test_oversized_collective_rejected(self, machine_obj):
        machine_obj.runtime.allocate("buf", 64)
        with pytest.raises(WorkloadError):
            machine_obj.pimnet_collective(Collective.ALL_REDUCE, "buf", 100)


class TestEndToEndPipeline:
    def test_host_kernel_pimnet_host(self, machine_obj, rng):
        """The full Fig 5(b) flow with real data.

        Host pushes per-DPU vectors; each DPU computes per-tasklet
        partial sums with the ISA interpreter; the host-visible partial
        results are AllReduced over PIMnet; the host pulls the global
        per-tasklet sums.
        """
        n = 32
        tasklets = 4
        per_dpu = [
            rng.integers(0, 100, n).astype(np.uint32) for _ in range(8)
        ]
        machine_obj.runtime.allocate("partials", 1024)
        # load each DPU's vector into WRAM directly (kernel input)
        for bank, data in zip(machine_obj.runtime.banks, per_dpu):
            bank.wram.write_array(0, data)
        machine_obj.run_kernel(
            reduce_sum_kernel(a_base=0, out_base=2048),
            num_tasklets=tasklets,
            init_registers={t: {1: tasklets, 2: n} for t in range(tasklets)},
        )
        # move per-tasklet partials WRAM -> MRAM buffer
        for bank in machine_obj.runtime.banks:
            bank.dma_to_mram(2048, 0, tasklets * 4 if tasklets * 4 >= 8 else 8)
        total_time = machine_obj.pimnet_collective(
            Collective.ALL_REDUCE, "partials", tasklets, dtype=np.uint32
        )
        assert total_time > 0
        pulled, _ = machine_obj.runtime.pull(
            "partials", tasklets, np.uint32
        )
        global_sum = sum(int(v.sum()) for v in per_dpu)
        for got in pulled:
            assert int(got.sum()) == global_sum
