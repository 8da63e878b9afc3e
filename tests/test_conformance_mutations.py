"""Seeded mutations: the engine detects every injected defect class,
shrinks it to a minimal reproducer, and the reproducer replays.

This is the sensitivity proof for the conformance engine — an engine
that cannot see a planted divergence is not checking anything.
"""

import pytest

from repro.config import ConformanceConfig
from repro.conformance import (
    MUTATION_MODES,
    ConformancePoint,
    Mutation,
    load_reproducer,
    replay_reproducer,
    reproducer_payload,
    run_point,
    shrink_point,
    write_reproducer,
)
from repro.errors import ConformanceError

CONFIG = ConformanceConfig()

#: A mid-sized matrix cell with traffic on every tier, so every
#: mutation mode has a target.
POINT = ConformancePoint("all_reduce", 2, 2, 2, 1024)

#: Which check must trip per mode.  ``offset`` may surface through the
#: structural validators instead of the functional diff when the shifted
#: write leaves the buffer.
EXPECTED_CHECKS = {
    "offset": {"functional", "validators"},
    "drop-transfer": {"functional"},
    "drop-flit": {"conservation"},
    "stall": {"latency"},
}


def failed_checks(report):
    return {
        name
        for name, check in report["checks"].items()
        if not check["ok"]
    }


class TestMutationModel:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConformanceError, match="unknown mutation"):
            Mutation("swap-bytes")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConformanceError, match="seed"):
            Mutation("stall", seed=-1)

    def test_dict_round_trip(self):
        mutation = Mutation("drop-flit", seed=3)
        assert Mutation.from_dict(mutation.as_dict()) == mutation

    def test_rng_is_stable_per_point(self):
        mutation = Mutation("offset", seed=7)
        a = mutation.rng(POINT.label())
        b = mutation.rng(POINT.label())
        assert [a.random() for _ in range(4)] == [
            b.random() for _ in range(4)
        ]

    def test_rng_differs_across_points(self):
        mutation = Mutation("offset", seed=7)
        other = ConformancePoint("all_reduce", 2, 2, 1, 1024)
        assert mutation.rng(POINT.label()).random() != (
            mutation.rng(other.label()).random()
        )


@pytest.mark.parametrize("mode", MUTATION_MODES)
class TestEveryModeIsDetected:
    def test_mutation_trips_its_check(self, mode):
        report = run_point(POINT, CONFIG, mutation=Mutation(mode))
        assert not report["ok"], f"{mode} went undetected"
        failed = failed_checks(report)
        assert failed & EXPECTED_CHECKS[mode], (
            f"{mode} tripped {failed}, expected one of "
            f"{EXPECTED_CHECKS[mode]}"
        )
        assert report["mutation"] == {"mode": mode, "seed": 0}

    def test_detection_is_deterministic(self, mode):
        mutation = Mutation(mode, seed=1)
        assert run_point(POINT, CONFIG, mutation=mutation) == (
            run_point(POINT, CONFIG, mutation=mutation)
        )

    def test_failure_shrinks_to_a_smaller_point(self, mode):
        result = shrink_point(POINT, CONFIG, mutation=Mutation(mode))
        assert not result.report["ok"]
        assert result.attempts >= 1
        assert result.point.num_dpus <= POINT.num_dpus
        assert result.point.payload_bytes <= POINT.payload_bytes
        assert result.point != result.original
        # Minimality: every halved neighbor of the shrunk point either
        # passes or is infeasible — otherwise shrinking would have
        # continued.
        from repro.conformance.shrink import _candidates

        for candidate in _candidates(result.point):
            try:
                replay = run_point(
                    candidate, CONFIG, mutation=Mutation(mode)
                )
            except ConformanceError:
                continue
            assert replay["ok"], (
                f"{candidate.label()} still fails; "
                f"{result.point.label()} was not minimal"
            )

    def test_reproducer_round_trips_and_replays(self, mode, tmp_path):
        mutation = Mutation(mode)
        result = shrink_point(POINT, CONFIG, mutation=mutation)
        path = write_reproducer(
            tmp_path / "repro.json", result, CONFIG, mutation
        )
        data = load_reproducer(path)
        assert data["point"] == result.point.params
        assert data["original_point"] == POINT.params
        assert data["mutation"] == mutation.as_dict()
        replayed = replay_reproducer(data)
        assert replayed == result.report


class TestShrinker:
    def test_passing_point_refuses_to_shrink(self):
        with pytest.raises(ConformanceError, match="nothing to shrink"):
            shrink_point(POINT, CONFIG)

    def test_payload_is_shrunk_before_the_shape(self):
        result = shrink_point(POINT, CONFIG, mutation=Mutation("stall"))
        # The stall defect survives at any payload, so the shrinker
        # must drive the payload down to the feasibility floor: one
        # element per surviving DPU.
        assert result.point.payload_bytes == (
            result.point.num_dpus * CONFIG.itemsize
        )

    def test_shrink_respects_max_attempts(self):
        result = shrink_point(
            POINT, CONFIG, mutation=Mutation("stall"), max_attempts=1
        )
        assert result.attempts == 1


class TestReproducerFiles:
    def test_payload_is_self_contained(self):
        mutation = Mutation("drop-flit")
        result = shrink_point(POINT, CONFIG, mutation=mutation)
        payload = reproducer_payload(result, CONFIG, mutation)
        assert payload["format"] == "repro-conformance-reproducer"
        assert payload["config"] == CONFIG.as_dict()
        assert payload["report"] == result.report

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ConformanceError, match="not a conformance"):
            load_reproducer(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(
            '{"format": "repro-conformance-reproducer", "version": 99}'
        )
        with pytest.raises(ConformanceError, match="version"):
            load_reproducer(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConformanceError, match="cannot read"):
            load_reproducer(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(ConformanceError, match="cannot read"):
            load_reproducer(bad)
