"""DPU substrate: the pipeline and phase-level compute models."""

from .compute import ComputeModel, OpCounts
from .pipeline import PipelineModel

__all__ = [
    "ComputeModel",
    "OpCounts",
    "PipelineModel",
]
