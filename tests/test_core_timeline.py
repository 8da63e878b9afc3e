"""AllReduce execution timelines (Fig 5(d) fidelity)."""

import pytest

from repro.collectives import Collective, CollectiveRequest
from repro.config import pimnet_sim_system, small_test_system
from repro.core import PimnetBackend, allreduce_timeline, format_timeline
from repro.errors import ScheduleError


@pytest.fixture(scope="module")
def timeline():
    return allreduce_timeline(32 * 1024, pimnet_sim_system())


class TestPhaseWindows:
    def test_phase_order(self, timeline):
        order = [(e.domain, e.phase) for e in timeline.entries]
        assert order == [
            ("bank", "RS"), ("chip", "RS"), ("rank", "RS"),
            ("rank", "AG"), ("chip", "AG"), ("bank", "AG"),
        ]

    def test_phases_abut_without_gaps(self, timeline):
        for a, b in zip(timeline.entries, timeline.entries[1:]):
            assert b.start_s == pytest.approx(a.end_s, abs=1e-12)

    def test_mirror_symmetry(self, timeline):
        """RS and AG legs of each ring tier take the same time."""
        assert timeline.entry("bank", "RS").duration_s == pytest.approx(
            timeline.entry("bank", "AG").duration_s
        )
        assert timeline.entry("chip", "RS").duration_s == pytest.approx(
            timeline.entry("chip", "AG").duration_s
        )

    def test_rank_rs_longer_than_rank_ag(self, timeline):
        """The bus RS leg moves (R-1)x the AG leg's data."""
        assert (
            timeline.entry("rank", "RS").duration_s
            > timeline.entry("rank", "AG").duration_s
        )

    def test_total_matches_backend_timing(self, timeline):
        backend = PimnetBackend(pimnet_sim_system())
        breakdown = backend.timing(
            CollectiveRequest(Collective.ALL_REDUCE, 32 * 1024)
        )
        transport = (
            breakdown.inter_bank_s
            + breakdown.inter_chip_s
            + breakdown.inter_rank_s
        )
        assert timeline.total_s == pytest.approx(
            transport + breakdown.sync_s, rel=1e-6
        )


class TestSmallMachines:
    def test_single_rank_machine_has_four_phases(self):
        from dataclasses import replace

        from repro.config import PimSystemConfig

        machine = replace(
            pimnet_sim_system(),
            system=PimSystemConfig(
                banks_per_chip=8, chips_per_rank=8, ranks_per_channel=1
            ),
        )
        timeline = allreduce_timeline(64 * 8 * 8, machine)
        domains = {e.domain for e in timeline.entries}
        assert domains == {"bank", "chip"}

    def test_payload_alignment_checked(self):
        with pytest.raises(ScheduleError):
            allreduce_timeline(1000, small_test_system())


class TestRendering:
    def test_gantt_contains_every_phase(self, timeline):
        text = format_timeline(timeline)
        for label in ("bank-RS", "chip-RS", "rank-RS", "bank-AG"):
            assert label in text
        assert "#" in text

    def test_bars_are_time_ordered(self, timeline):
        text = format_timeline(timeline)
        lines = [l for l in text.splitlines() if "|" in l]
        starts = [line.index("#") for line in lines]
        assert starts == sorted(starts)

