"""End-to-end integration: API -> schedule -> timing coherence."""

import numpy as np
import pytest

from repro import (
    PimnetBackend,
    pimnet_all_reduce,
    pimnet_sim_system,
    registry,
    small_test_system,
)
from repro.collectives import Collective, CollectiveRequest
from repro.core import execute_schedule
from repro.workloads import ExecutionEngine, GemvWorkload, distributed_gemv

from .conftest import make_buffers


class TestThreeRepresentationsAgree:
    """The API (functional semantics) and the executed static schedule
    must agree on real data, end to end, on the tiny machine."""

    @pytest.mark.parametrize(
        "pattern", [Collective.ALL_REDUCE, Collective.ALL_TO_ALL]
    )
    def test_all_paths_agree(self, tiny_machine, rng, pattern):
        backend = PimnetBackend(tiny_machine)
        buffers = make_buffers(8, 16, rng)
        request = CollectiveRequest(
            pattern, 16 * 8, dtype=np.dtype(np.int64)
        )
        api_out = backend.run(request, buffers).outputs
        sched_out = execute_schedule(backend.schedule(request), buffers)
        for a, b in zip(api_out, sched_out):
            assert np.array_equal(a, b)


class TestTimingCoherence:
    def test_api_time_equals_backend_timing(self, tiny_machine, rng):
        buffers = make_buffers(8, 16, rng)
        api_result = pimnet_all_reduce(buffers, tiny_machine)
        backend = registry.create("P", tiny_machine)
        request = CollectiveRequest(
            Collective.ALL_REDUCE, 16 * 8, dtype=np.dtype(np.int64)
        )
        assert api_result.time_s == pytest.approx(
            backend.timing(request).total_s
        )

    def test_engine_comm_equals_sum_of_collectives(self, machine):
        workload = GemvWorkload(batch=3)
        engine = ExecutionEngine(machine, "P")
        result = engine.run(workload)
        backend = registry.create("P", machine)
        single = backend.timing(
            CollectiveRequest(
                Collective.REDUCE_SCATTER,
                workload.rows * 4,
                dtype=np.dtype(np.int32),
            )
        ).total_s
        assert result.comm_s == pytest.approx(3 * single)


class TestWorkloadThroughBackend:
    def test_gemv_through_every_backend_same_answer(self, tiny_machine, rng):
        W = rng.integers(-5, 5, (16, 32)).astype(np.int64)
        x = rng.integers(-5, 5, 32).astype(np.int64)
        expected = W @ x
        for key in ("B", "S", "MaxBW", "D", "P"):
            backend = registry.create(key, tiny_machine)
            assert np.array_equal(
                distributed_gemv(W, x, backend), expected
            ), key

    def test_pimnet_is_fastest_backend_for_gemv(self, machine):
        results = {}
        for key in ("B", "S", "D", "P"):
            results[key] = (
                ExecutionEngine(machine, key).run(GemvWorkload()).total_s
            )
        assert results["P"] == min(results.values())


class TestScaleConsistency:
    def test_small_and_large_machines_share_semantics(self, rng):
        """Same per-DPU data, different machine sizes: PIMnet AllReduce
        output values are machine-independent for the common prefix."""
        small = small_test_system()
        buffers8 = make_buffers(8, 8, rng)
        out8 = pimnet_all_reduce(buffers8, small).outputs[0]
        assert np.array_equal(out8, np.sum(buffers8, axis=0))

    def test_weak_scaling_time_grows_sublinearly(self):
        """PIMnet AllReduce time grows far slower than DPU count."""
        from repro.experiments.common import scaled_machine

        machine = pimnet_sim_system()
        request = CollectiveRequest(Collective.ALL_REDUCE, 32 * 1024)
        t8 = registry.create(
            "P", scaled_machine(machine, 8)
        ).timing(request).total_s
        t256 = registry.create(
            "P", scaled_machine(machine, 256)
        ).timing(request).total_s
        assert t256 < 4 * t8
