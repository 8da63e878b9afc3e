"""Execution policy for the parallel experiment runner.

Like :class:`TraceConfig`, this is plain data kept with the rest of the
configuration so the CLI and library callers can thread it around
without importing the runner machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .units import check_number

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class RunnerConfig:
    """How to execute an experiment's sweep points.

    ``jobs`` is the process fan-out (1 = in-process serial execution);
    ``point_timeout_s`` bounds the wait for any single point when
    running in parallel (``None`` = no bound; ignored on the serial
    path, which cannot preempt a running point).
    """

    jobs: int = 1
    cache_enabled: bool = True
    cache_dir: str = DEFAULT_CACHE_DIR
    point_timeout_s: float | None = None

    def __post_init__(self) -> None:
        check_number(self.jobs, "jobs", ConfigurationError, integer=True,
                     at_least=1)
        if self.point_timeout_s is not None:
            check_number(self.point_timeout_s, "point_timeout_s",
                         ConfigurationError, above=0)
        if not self.cache_dir:
            raise ConfigurationError("cache_dir must be non-empty")
