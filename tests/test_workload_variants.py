"""Table VII configuration variants (GEMV sizes, MLP layer sizes)."""

import pytest

from repro.config import pimnet_sim_system
from repro.workloads import GemvWorkload, MlpWorkload, compare_backends


def gemv_1024x64() -> GemvWorkload:
    """Table VII first GEMV configuration (per-DPU tile 1024x64)."""
    return GemvWorkload(rows=1024, cols_per_dpu=64)


def gemv_2048x128() -> GemvWorkload:
    """Table VII second GEMV configuration (per-DPU tile 2048x128)."""
    return GemvWorkload(rows=2048, cols_per_dpu=128)


def mlp_configs() -> dict[str, MlpWorkload]:
    """Table VII MLP configurations as individual square layers."""
    return {
        f"MLP-{size}": MlpWorkload(layer_sizes=(size,) * 3)
        for size in (256, 512, 1024)
    }


@pytest.fixture(scope="module")
def machine():
    return pimnet_sim_system()


class TestGemvVariants:
    def test_both_benefit_from_pimnet(self, machine):
        for workload in (gemv_1024x64(), gemv_2048x128()):
            results = compare_backends(workload, machine, ["B", "P"])
            assert results["P"].speedup_over(results["B"]) > 1.3

    def test_larger_tile_is_more_compute_bound(self, machine):
        """The 2048x128 tile quadruples compute but only doubles the RS
        payload, so its comm fraction — and PIMnet gain — is smaller."""
        small = compare_backends(gemv_1024x64(), machine, ["B", "P"])
        large = compare_backends(gemv_2048x128(), machine, ["B", "P"])
        assert (
            large["B"].comm_fraction < small["B"].comm_fraction
        )
        assert large["P"].speedup_over(large["B"]) < small[
            "P"
        ].speedup_over(small["B"])


class TestMlpVariants:
    def test_speedup_shrinks_with_layer_size(self, machine):
        """Bigger square layers mean quadratically more emulated
        multiplies against linearly more AllReduce payload."""
        speedups = {}
        for name, workload in mlp_configs().items():
            results = compare_backends(workload, machine, ["B", "P"])
            speedups[name] = results["P"].speedup_over(results["B"])
        assert speedups["MLP-256"] > speedups["MLP-512"] > speedups["MLP-1024"]

    def test_all_above_one(self, machine):
        for workload in mlp_configs().values():
            results = compare_backends(workload, machine, ["B", "P"])
            assert results["P"].speedup_over(results["B"]) > 1.0
