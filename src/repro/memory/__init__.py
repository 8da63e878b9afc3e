"""DRAM substrate: bank DMA staging, DDR channel."""

from .bank import BankMemory
from .channel import ChannelTransfer, DdrChannel

__all__ = [
    "BankMemory",
    "ChannelTransfer",
    "DdrChannel",
]
