"""Public API surface: the contract a downstream user imports against."""

import importlib
import pkgutil

import numpy as np

import repro
from repro import (
    pimnet_gather,
    pimnet_reduce,
)
from repro.collectives import ReduceOp

from .conftest import make_buffers


def _subpackages():
    return [m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg]


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_exported(self):
        for name in (
            "pimnet_all_reduce", "pimnet_reduce_scatter",
            "pimnet_all_gather", "pimnet_all_to_all",
            "pimnet_broadcast", "pimnet_reduce", "pimnet_gather",
            "PimnetBackend", "registry",
            "pimnet_sim_system", "upmem_server",
        ):
            assert name in repro.__all__, name

    def test_subpackages_importable(self):
        subpackages = _subpackages()
        assert "faults" in subpackages
        for name in subpackages:
            importlib.import_module(f"repro.{name}")

    def test_subpackage_alls_resolve(self):
        for name in _subpackages():
            module = importlib.import_module(f"repro.{name}")
            for export in module.__all__:
                assert hasattr(module, export), (module.__name__, export)


class TestRootedApis:
    def test_pimnet_reduce(self, tiny_machine, rng):
        buffers = make_buffers(8, 16, rng)
        result = pimnet_reduce(buffers, tiny_machine, root=3)
        assert np.array_equal(result.outputs[3], np.sum(buffers, axis=0))
        assert result.outputs[0].size == 0
        assert result.time_s > 0

    def test_pimnet_reduce_min(self, tiny_machine, rng):
        buffers = make_buffers(8, 16, rng)
        result = pimnet_reduce(
            buffers, tiny_machine, op=ReduceOp.MIN, root=0
        )
        assert np.array_equal(result.outputs[0], np.min(buffers, axis=0))

    def test_pimnet_gather(self, tiny_machine, rng):
        buffers = make_buffers(8, 4, rng)
        result = pimnet_gather(buffers, tiny_machine, root=5)
        assert np.array_equal(result.outputs[5], np.concatenate(buffers))
        assert result.outputs[1].size == 0

    def test_reduce_cheaper_than_allreduce(self, tiny_machine, rng):
        from repro import pimnet_all_reduce

        buffers = make_buffers(8, 512, rng)
        reduce_t = pimnet_reduce(buffers, tiny_machine).time_s
        allreduce_t = pimnet_all_reduce(buffers, tiny_machine).time_s
        assert reduce_t < allreduce_t * 1.5  # same order of magnitude
