"""Formatting helpers for execution/communication breakdowns."""

from __future__ import annotations

from ..collectives.result import CommBreakdown

#: Fig 11 component order and display labels.
COMM_COMPONENTS = (
    ("inter_bank_s", "Inter-bank"),
    ("inter_chip_s", "Inter-chip"),
    ("inter_rank_s", "Inter-rank"),
    ("host_transfer_s", "Host-xfer"),
    ("host_compute_s", "Host-comp"),
    ("sync_s", "Sync"),
    ("mem_s", "Mem"),
)


def comm_percentages(breakdown: CommBreakdown) -> dict[str, float]:
    """Each Fig 11 component as a percentage of communication time."""
    total = breakdown.total_s
    if total <= 0:
        return {label: 0.0 for _, label in COMM_COMPONENTS}
    values = breakdown.as_dict()
    return {
        label: 100.0 * values[key] / total for key, label in COMM_COMPONENTS
    }


def format_breakdown_row(name: str, breakdown: CommBreakdown) -> str:
    """One printable Fig 11 row."""
    parts = comm_percentages(breakdown)
    cells = "  ".join(
        f"{label}:{parts[label]:5.1f}%" for _, label in COMM_COMPONENTS
    )
    return f"{name:12s} total={breakdown.total_s * 1e6:10.1f}us  {cells}"
