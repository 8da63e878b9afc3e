"""Declarative experiment specs: sweeps of independent, cacheable points.

An :class:`ExperimentSpec` wraps one figure/table driver as

* ``points(machine)`` — the declarative sweep: an ordered tuple of
  :class:`SweepPoint`, each a pure function of ``machine`` plus its
  JSON-able ``params``;
* ``point_fn(machine, **params)`` — computes one point and returns a
  JSON-serializable value (so results can live in the on-disk cache and
  cross process boundaries losslessly);
* ``assemble(machine, values)`` — deterministically reassembles the
  point values (ordered by ``SweepPoint.index``, *never* by completion
  order) into the experiment's typed result;
* ``build_tables(result)`` — renders that result as the experiment's
  :class:`ExperimentTable` tuple.

Experiments with no natural sweep decomposition register through
:func:`monolithic_spec`: a single point whose value is the serialized
tables themselves, so their result is just the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import RunnerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..config.presets import MachineConfig
    from ..experiments.common import ExperimentTable


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of work inside an experiment's sweep.

    ``index`` is the point's slot in the reassembled result (0..n-1);
    ``params`` are the JSON-able keyword arguments for ``point_fn`` and
    one third of the cache key (with the machine config and the code
    fingerprint).
    """

    index: int
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment the parallel runner knows how to execute."""

    experiment_id: str
    title: str
    points: Callable[["MachineConfig"], tuple[SweepPoint, ...]]
    point_fn: Callable[..., Any]
    assemble: Callable[["MachineConfig", tuple[Any, ...]], Any]
    #: The default serves specs whose result already is its tables.
    build_tables: Callable[[Any], tuple["ExperimentTable", ...]] = tuple
    #: Module imported in worker processes before resolving the spec —
    #: only needed for specs registered outside ``repro.experiments``
    #: under a non-``fork`` multiprocessing start method.
    worker_import: str | None = None


_CELL_TYPES = (str, int, float, bool, type(None))


def table_to_jsonable(table: "ExperimentTable") -> dict[str, Any]:
    """A lossless plain-JSON rendering of one table."""
    for row in table.rows:
        for cell in row:
            if not isinstance(cell, _CELL_TYPES):
                raise RunnerError(
                    f"{table.experiment_id}: cell {cell!r} of type "
                    f"{type(cell).__name__} does not survive a JSON "
                    "round-trip"
                )
    return {
        "experiment_id": table.experiment_id,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "notes": table.notes,
    }


def table_from_jsonable(data: dict[str, Any]) -> "ExperimentTable":
    from ..experiments.common import ExperimentTable

    return ExperimentTable(
        experiment_id=data["experiment_id"],
        title=data["title"],
        columns=tuple(data["columns"]),
        rows=tuple(tuple(row) for row in data["rows"]),
        notes=data.get("notes", ""),
    )


def tables_to_jsonable(
    tables: tuple["ExperimentTable", ...],
) -> list[dict[str, Any]]:
    return [table_to_jsonable(t) for t in tables]


def tables_from_jsonable(data: list[dict[str, Any]]) -> tuple[
    "ExperimentTable", ...
]:
    return tuple(table_from_jsonable(d) for d in data)


def format_tables(tables: tuple["ExperimentTable", ...]) -> str:
    """Tables as the CLI prints them, separated by a blank line."""
    return "\n\n".join(table.format() for table in tables)


def monolithic_spec(
    experiment_id: str,
    title: str,
    run_fn: Callable[["MachineConfig"], Any],
    build_tables: Callable[[Any], tuple["ExperimentTable", ...]],
) -> ExperimentSpec:
    """Wrap a driver with no natural sweep as a single whole-run point.

    The point value is the serialized tables, so the cache and the
    parallel executor treat monolithic and swept experiments uniformly.
    """

    def _points(machine: "MachineConfig") -> tuple[SweepPoint, ...]:
        return (SweepPoint(0),)

    def _point_fn(machine: "MachineConfig") -> list[dict[str, Any]]:
        return tables_to_jsonable(build_tables(run_fn(machine)))

    def _assemble(
        machine: "MachineConfig", values: tuple[Any, ...]
    ) -> tuple["ExperimentTable", ...]:
        return tables_from_jsonable(values[0])

    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        points=_points,
        point_fn=_point_fn,
        assemble=_assemble,
    )
