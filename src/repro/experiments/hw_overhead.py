"""Section VI-B: hardware overhead of PIMnet."""

from __future__ import annotations

from ..analysis.hw_overhead import HwOverheadReport, hardware_overhead_report
from ..runner.registry import register_monolithic
from .common import ExperimentTable


def run() -> HwOverheadReport:
    return hardware_overhead_report()


def build_tables(report: HwOverheadReport) -> tuple[ExperimentTable, ...]:
    rows = (
        (
            "PIMnet stop",
            f"{report.stop.area_mm2 * 1e3:.3f}e-3",
            f"{report.stop.power_mw:.2f}",
            "-",
        ),
        (
            "per-bank logic (stop+addr)",
            f"{report.per_bank.area_mm2 * 1e3:.3f}e-3",
            f"{report.per_bank.power_mw:.2f}",
            f"{report.bank_area_percent:.3f}% area / "
            f"{report.bank_power_percent:.2f}% power of bank",
        ),
        (
            "ring NoC router",
            f"{report.router.area_mm2 * 1e3:.3f}e-3",
            f"{report.router.power_mw:.2f}",
            f"{report.router_to_stop_area_ratio:.0f}x the stop",
        ),
        (
            "inter-chip switch",
            f"{report.switch.area_mm2 * 1e3:.3f}e-3",
            f"{report.switch.power_mw:.1f}",
            "paper: 0.013 mm^2 / 17 mW",
        ),
        (
            "sync propagation",
            "-",
            "-",
            f"{report.sync_latency_ns:.1f} ns (paper ~15 ns)",
        ),
    )
    return (
        ExperimentTable(
            "HW overhead (Sec VI-B)",
            "Analytic area/power model (45 nm, 3 metal layers)",
            ("block", "area mm^2", "power mW", "comparison"),
            rows,
            notes=(
                "paper: +0.09% bank area, +1.6% bank power, >60x smaller "
                "than a NoC router"
            ),
        ),
    )


SPEC = register_monolithic(
    "hw_overhead",
    "Sec VI-B: hardware overhead",
    lambda machine: run(),
    build_tables,
)
