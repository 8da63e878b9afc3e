"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass

from ..config.presets import MachineConfig, pimnet_sim_system
from ..errors import ReproError


@dataclass(frozen=True)
class ExperimentTable:
    """A paper-shaped results table: header row plus data rows."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        # Validate eagerly: a malformed table should fail where it is
        # built, not later when (if ever) someone formats it.
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ReproError(
                    f"{self.experiment_id}: row {i} width {len(row)} != "
                    f"header width {len(self.columns)}"
                )

    def format(self) -> str:
        widths = [
            max(
                len(str(col)),
                max((len(_cell(r[i])) for r in self.rows), default=0),
            )
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(
            "  ".join(
                str(c).ljust(widths[i]) for i, c in enumerate(self.columns)
            )
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(
                    _cell(v).ljust(widths[i]) for i, v in enumerate(row)
                )
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def scaled_machine(machine: MachineConfig, num_dpus: int) -> MachineConfig:
    """A copy of ``machine`` resized to ``num_dpus`` on one channel."""
    from dataclasses import replace

    return replace(
        machine, system=machine.system.scaled_to_dpus(num_dpus)
    )


def default_machine() -> MachineConfig:
    return pimnet_sim_system()


#: DPU counts for the weak-scaling sweeps of Figs 3 and 12.
SCALING_DPU_COUNTS = (8, 16, 32, 64, 128, 256)
