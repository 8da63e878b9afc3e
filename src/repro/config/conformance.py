"""Configuration of the cross-model conformance matrix.

Like :class:`RunnerConfig` and :class:`FaultCampaignConfig`, this is
plain eagerly-validated data: the CLI and tests thread it into
:mod:`repro.conformance` without importing the engine machinery.

The matrix is the cartesian product ``collectives x shapes x
payload_bytes``.  Default shapes keep ``ranks <= 2`` on purpose: the
analytic rank-tier model counts a broadcast's bus payload once (the bus
is physically broadcast-capable) while the flit simulator models it as
per-destination unicasts, so shapes with more than two ranks diverge by
construction, not by bug.  See ``docs/CONFORMANCE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConformanceError
from .units import JsonForm, check_number

#: Collective patterns checked by the default matrix (the five Table V
#: patterns with non-trivial multi-tier schedules).
DEFAULT_COLLECTIVES = (
    "all_reduce",
    "reduce_scatter",
    "all_gather",
    "all_to_all",
    "broadcast",
)

#: Machine shapes as (banks, chips, ranks).  All have ``ranks <= 2``
#: (see the module docstring) and every nested ring segment divides.
DEFAULT_SHAPES = ((2, 2, 1), (2, 2, 2), (4, 2, 2))

#: Per-DPU payload sizes in bytes (int64 elements: 32, 128, 512).
DEFAULT_PAYLOADS = (256, 1024, 4096)


@dataclass(frozen=True)
class ConformanceConfig(JsonForm):
    """One conformance run: the matrix plus agreement tolerances.

    The latency check asserts, per point::

        min_ratio * analytic - slack <= noc <= (1 + rel_tol) * analytic + slack

    (all in cycles).  The analytic model is a contention-free lower
    bound; the flit simulator adds per-hop pipelining, flit
    quantization, and arbitration, empirically 1.0x-1.9x on the default
    matrix — hence ``rel_tol`` of 1.0 with a small absolute slack for
    near-zero points.  ``seed`` feeds the per-point payload RNG (and the
    mutation RNG), so a run is reproducible from this config alone, and
    :meth:`as_dict` is the form reproducers and matrix reports record.
    """

    json_noun = "conformance config"
    json_error = ConformanceError

    collectives: tuple[str, ...] = DEFAULT_COLLECTIVES
    shapes: tuple[tuple[int, int, int], ...] = DEFAULT_SHAPES
    payload_bytes: tuple[int, ...] = DEFAULT_PAYLOADS
    latency_rel_tol: float = 1.0
    latency_min_ratio: float = 0.9
    latency_abs_slack_cycles: float = 200.0
    itemsize: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.collectives:
            raise ConformanceError("need at least one collective")
        from ..collectives.patterns import Collective

        known = {p.value for p in Collective}
        for name in self.collectives:
            if name not in known:
                raise ConformanceError(
                    f"unknown collective {name!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
        if not self.shapes:
            raise ConformanceError("need at least one machine shape")
        for shape in self.shapes:
            if len(shape) != 3 or any(
                not isinstance(d, int) or d < 1 for d in shape
            ):
                raise ConformanceError(
                    f"shape {shape!r} must be three positive ints "
                    "(banks, chips, ranks)"
                )
        if not self.payload_bytes:
            raise ConformanceError("need at least one payload size")
        check_number(self.itemsize, "itemsize", ConformanceError,
                     integer=True, at_least=1)
        for payload in self.payload_bytes:
            check_number(payload, "payload", ConformanceError, integer=True,
                         at_least=1)
            if payload % self.itemsize:
                raise ConformanceError(
                    f"payload {payload} is not a multiple of the "
                    f"{self.itemsize}-byte element size"
                )
        check_number(self.latency_rel_tol, "latency_rel_tol",
                     ConformanceError, at_least=0)
        check_number(self.latency_min_ratio, "latency_min_ratio",
                     ConformanceError, at_least=0, at_most=1)
        check_number(self.latency_abs_slack_cycles,
                     "latency_abs_slack_cycles", ConformanceError, at_least=0)
        check_number(self.seed, "seed", ConformanceError, integer=True,
                     at_least=0)

    def latency_band(self, analytic_cycles: float) -> tuple[float, float]:
        """The ``(lower, upper)`` NoC cycle band around ``analytic_cycles``."""
        slack = self.latency_abs_slack_cycles
        lower = self.latency_min_ratio * analytic_cycles - slack
        upper = (1.0 + self.latency_rel_tol) * analytic_cycles + slack
        return lower, upper

    @property
    def num_points(self) -> int:
        return (
            len(self.collectives)
            * len(self.shapes)
            * len(self.payload_bytes)
        )
