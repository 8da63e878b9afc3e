"""Reference kernels executed on the interpreter."""

import numpy as np
import pytest

from .dpu_oracle import (
    Dpu,
    reduce_sum_kernel,
    vector_add_kernel,
    vector_scale_kernel,
)


def init_tasklets(num_tasklets, n, extra=None):
    """Caller-convention registers: r1 = tasklet count, r2 = n."""
    base = {1: num_tasklets, 2: n}
    if extra:
        base.update(extra)
    return {t: dict(base) for t in range(num_tasklets)}


class TestVectorAdd:
    @pytest.mark.parametrize("num_tasklets", [1, 3, 8, 16])
    def test_matches_numpy(self, num_tasklets, rng):
        n = 64
        dpu = Dpu()
        a = rng.integers(0, 1000, n).astype(np.uint32)
        b = rng.integers(0, 1000, n).astype(np.uint32)
        dpu.words(0, a.size)[:] = a
        dpu.words(1024, b.size)[:] = b
        program = vector_add_kernel(a_base=0, b_base=1024, out_base=2048)
        dpu.run(
            program,
            num_tasklets=num_tasklets,
            init_registers=init_tasklets(num_tasklets, n),
        )
        out = dpu.words(2048, n)
        assert np.array_equal(out, a + b)

    def test_ragged_length(self, rng):
        """n not divisible by the tasklet count still covers every element."""
        n = 37
        dpu = Dpu()
        a = rng.integers(0, 100, n).astype(np.uint32)
        b = rng.integers(0, 100, n).astype(np.uint32)
        dpu.words(0, a.size)[:] = a
        dpu.words(512, b.size)[:] = b
        program = vector_add_kernel(a_base=0, b_base=512, out_base=1024)
        dpu.run(program, num_tasklets=5, init_registers=init_tasklets(5, n))
        out = dpu.words(1024, n)
        assert np.array_equal(out, a + b)


class TestVectorScale:
    def test_matches_numpy(self, rng):
        n = 32
        dpu = Dpu()
        a = rng.integers(0, 100, n).astype(np.uint32)
        dpu.words(0, a.size)[:] = a
        program = vector_scale_kernel(a_base=0, out_base=512)
        dpu.run(
            program,
            num_tasklets=4,
            init_registers=init_tasklets(4, n, extra={8: 7}),
        )
        out = dpu.words(512, n)
        assert np.array_equal(out, a * 7)

    def test_mul_kernel_slower_than_add_kernel(self, rng):
        """The emulated multiply makes scaling slower than adding."""
        n = 64
        dpu = Dpu()
        a = rng.integers(0, 100, n).astype(np.uint32)
        dpu.words(0, a.size)[:] = a
        dpu.words(1024, a.size)[:] = a
        add = dpu.run(
            vector_add_kernel(0, 1024, 2048),
            num_tasklets=8,
            init_registers=init_tasklets(8, n),
        )
        scale = dpu.run(
            vector_scale_kernel(0, 3072),
            num_tasklets=8,
            init_registers=init_tasklets(8, n, extra={8: 3}),
        )
        assert scale.issue_slots > add.issue_slots


class TestReduceSum:
    @pytest.mark.parametrize("num_tasklets", [1, 2, 8])
    def test_partials_sum_to_total(self, num_tasklets, rng):
        n = 48
        dpu = Dpu()
        a = rng.integers(0, 1000, n).astype(np.uint32)
        dpu.words(0, a.size)[:] = a
        program = reduce_sum_kernel(a_base=0, out_base=4096)
        dpu.run(
            program,
            num_tasklets=num_tasklets,
            init_registers=init_tasklets(num_tasklets, n),
        )
        partials = dpu.words(4096, num_tasklets)
        assert partials.sum() == a.sum()
