"""DRAM substrate: sparse memories, bank DMA, DDR channel."""

from .bank import BankMemory
from .channel import ChannelTransfer, DdrChannel
from .sparse import SparseMemory

__all__ = [
    "BankMemory",
    "ChannelTransfer",
    "DdrChannel",
    "SparseMemory",
]
