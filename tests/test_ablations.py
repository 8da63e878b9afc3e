"""Ablation-study drivers."""

import pytest

from repro.experiments import ablations
from repro.runner import format_tables

from .conftest import experiment_result


@pytest.fixture(scope="module")
def results():
    return experiment_result("ablations")


class TestHierarchy:
    def test_hierarchy_is_the_load_bearing_choice(self, results):
        by_name = {r.name: r for r in results}
        entry = by_name["hierarchical vs flat ring"]
        assert entry.benefit > 3

    def test_flat_ring_pays_the_bus(self, results):
        by_name = {r.name: r for r in results}
        entry = by_name["hierarchical vs flat ring"]
        assert entry.alternative_s > entry.pimnet_s


class TestRingConfiguration:
    def test_unidirectional_wins_for_pure_allreduce(self, results):
        """Honest trade: ring RS/AG drives one direction, so the 2x32b
        repartition is faster for AllReduce (the paper keeps the
        bidirectional default for A2A/broadcast routing)."""
        by_name = {r.name: r for r in results}
        entry = by_name["bidirectional 4x16b vs unidirectional 2x32b"]
        assert entry.benefit < 1.0
        assert entry.benefit > 0.5


class TestBusBroadcast:
    def test_broadcast_never_hurts(self, results):
        by_name = {r.name: r for r in results}
        entry = by_name["bus broadcast vs unicast AllGather leg"]
        assert entry.benefit >= 1.0


class TestInterChannelBridge:
    def test_direct_bridge_helps_but_modestly_for_allreduce(self, results):
        """Channel-local reduction leaves little cross-channel data, so
        the future-work direct link buys little for AllReduce."""
        by_name = {r.name: r for r in results}
        entry = by_name[
            "inter-channel via host vs direct link (future work)"
        ]
        assert 1.0 < entry.benefit < 2.0


class TestFormatting:
    def test_table_renders(self, results):
        text = format_tables(ablations.build_tables(results))
        assert "Ablations" in text
        assert "hierarchical vs flat ring" in text
