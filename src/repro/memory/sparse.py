"""Sparse byte-addressable memory.

A full PIMnet-scale system has 256 banks x 64 MB of MRAM — 16 GB — so the
functional model only materializes pages that have actually been written.
Reads of never-written bytes return zeros, matching DRAM-after-init
semantics in the simulator.
"""

from __future__ import annotations

import numpy as np

from ..errors import MemoryModelError


class SparseMemory:
    """Byte-addressable memory backed by lazily allocated pages."""

    def __init__(self, capacity_bytes: int, page_bytes: int = 4096) -> None:
        if capacity_bytes <= 0:
            raise MemoryModelError("memory capacity must be positive")
        if page_bytes <= 0:
            raise MemoryModelError("page size must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.page_bytes = int(page_bytes)
        self._pages: dict[int, np.ndarray] = {}

    # -- helpers ---------------------------------------------------------------
    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0:
            raise MemoryModelError(
                f"negative address/length: addr={address} len={length}"
            )
        if address + length > self.capacity_bytes:
            raise MemoryModelError(
                f"access [{address}, {address + length}) exceeds capacity "
                f"{self.capacity_bytes}"
            )

    def _page(self, index: int) -> np.ndarray:
        page = self._pages.get(index)
        if page is None:
            page = np.zeros(self.page_bytes, dtype=np.uint8)
            self._pages[index] = page
        return page

    # -- byte interface ---------------------------------------------------------
    def write(self, address: int, data: bytes | np.ndarray) -> None:
        """Write raw bytes starting at ``address``."""
        buf = np.frombuffer(bytes(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else np.ascontiguousarray(data, dtype=np.uint8).ravel()
        self._check_range(address, buf.size)
        offset = 0
        while offset < buf.size:
            page_index, page_offset = divmod(address + offset, self.page_bytes)
            chunk = min(buf.size - offset, self.page_bytes - page_offset)
            self._page(page_index)[page_offset : page_offset + chunk] = buf[
                offset : offset + chunk
            ]
            offset += chunk

    def read(self, address: int, length: int) -> np.ndarray:
        """Read ``length`` bytes starting at ``address`` as a uint8 array."""
        self._check_range(address, length)
        out = np.zeros(length, dtype=np.uint8)
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(address + offset, self.page_bytes)
            chunk = min(length - offset, self.page_bytes - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset : offset + chunk] = page[
                    page_offset : page_offset + chunk
                ]
            offset += chunk
        return out

    # -- typed convenience interface ---------------------------------------------
    def write_array(self, address: int, array: np.ndarray) -> None:
        """Write a typed numpy array at ``address`` (little-endian layout)."""
        self.write(address, np.ascontiguousarray(array).view(np.uint8).ravel())

    def read_array(
        self, address: int, count: int, dtype: np.dtype | type
    ) -> np.ndarray:
        """Read ``count`` elements of ``dtype`` starting at ``address``."""
        dt = np.dtype(dtype)
        raw = self.read(address, count * dt.itemsize)
        return raw.view(dt).copy()
