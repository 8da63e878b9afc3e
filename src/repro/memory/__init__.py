"""DRAM substrate: sparse memories, bank DMA, DDR channel."""

from .bank import BankMemory, DmaTransfer
from .channel import ChannelTransfer, DdrChannel
from .sparse import SparseMemory

__all__ = [
    "BankMemory",
    "DmaTransfer",
    "ChannelTransfer",
    "DdrChannel",
    "SparseMemory",
]
