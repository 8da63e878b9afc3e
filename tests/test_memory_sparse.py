"""Sparse byte-addressable memory model."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.memory import SparseMemory


class TestBasicReadWrite:
    def test_unwritten_reads_zero(self):
        mem = SparseMemory(1024)
        assert np.all(mem.read(0, 100) == 0)

    def test_write_then_read(self):
        mem = SparseMemory(1024)
        mem.write(10, b"hello")
        assert bytes(mem.read(10, 5)) == b"hello"

    def test_write_across_page_boundary(self):
        mem = SparseMemory(16384, page_bytes=64)
        data = bytes(range(200)) + bytes(range(56))
        mem.write(30, data)
        assert bytes(mem.read(30, len(data))) == data

    def test_overwrite(self):
        mem = SparseMemory(256)
        mem.write(0, b"aaaa")
        mem.write(2, b"bb")
        assert bytes(mem.read(0, 4)) == b"aabb"

    def test_surrounding_bytes_untouched(self):
        mem = SparseMemory(256)
        mem.write(10, b"x")
        assert mem.read(9, 1)[0] == 0
        assert mem.read(11, 1)[0] == 0


class TestBoundsChecking:
    def test_read_past_capacity(self):
        mem = SparseMemory(64)
        with pytest.raises(MemoryModelError):
            mem.read(60, 8)

    def test_write_past_capacity(self):
        mem = SparseMemory(64)
        with pytest.raises(MemoryModelError):
            mem.write(63, b"ab")

    def test_negative_address(self):
        mem = SparseMemory(64)
        with pytest.raises(MemoryModelError):
            mem.read(-1, 4)

    def test_zero_capacity_rejected(self):
        with pytest.raises(MemoryModelError):
            SparseMemory(0)


class TestTypedInterface:
    def test_array_round_trip(self):
        mem = SparseMemory(4096)
        arr = np.arange(100, dtype=np.int64)
        mem.write_array(8, arr)
        assert np.array_equal(mem.read_array(8, 100, np.int64), arr)

    def test_dtype_preserved(self):
        mem = SparseMemory(4096)
        arr = np.array([1.5, -2.25, 3.75], dtype=np.float64)
        mem.write_array(0, arr)
        out = mem.read_array(0, 3, np.float64)
        assert out.dtype == np.float64
        assert np.array_equal(out, arr)

    def test_mixed_width_access(self):
        mem = SparseMemory(64)
        mem.write_array(0, np.array([0x01020304], dtype=np.uint32))
        raw = mem.read(0, 4)
        # little-endian layout
        assert list(raw) == [4, 3, 2, 1]


class TestResidency:
    def test_lazy_allocation(self):
        mem = SparseMemory(64 * 1024 * 1024)
        assert len(mem._pages) == 0
        mem.write(63 * 1024 * 1024, b"x")
        assert len(mem._pages) == 1
