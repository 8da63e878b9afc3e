"""The differential workload matrix: distributed == reference, always.

Every cell is one (workload, machine shape, payload scale) point run by
:func:`repro.workloads.run_case`, which asserts three invariants at
once: the distributed result is bit-exact against the numpy reference,
the recorded collective trace matches the workload's declared phase
list, and both match the closed-form ``expected_comm_volume``.  The
Table VII workloads declare no phase list, so their cells check the
first invariant only.

The full PrIM matrix runs in the default suite, plus every workload at
scale S on every shape on both the PIMnet and host backends; APSP's
larger scales are cycle-hungry (dense min-plus) and carry the ``slow``
marker.
"""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    DIFFERENTIAL_KEYS,
    WORKLOAD_KEYS,
    DifferentialCase,
    TraceRecordingBackend,
    enumerate_cases,
    run_case,
    run_differential_matrix,
    summarize_by_workload,
)
from repro.workloads.differential import DEFAULT_SCALES, DEFAULT_SHAPES

pytestmark = pytest.mark.workloads


def _cases():
    cases = {case.case_id: case for case in enumerate_cases()}
    for backend_key in ("P", "B"):
        for case in enumerate_cases(
            keys=WORKLOAD_KEYS, scales=("S",), backend_key=backend_key
        ):
            cases.setdefault(case.case_id, case)
    return list(cases.values())


def _case_params():
    params = []
    for case in _cases():
        marks = []
        if case.workload_key == "APSP" and case.scale != "S":
            marks.append(pytest.mark.slow)
        params.append(
            pytest.param(case, id=case.case_id, marks=tuple(marks))
        )
    return params


@pytest.mark.parametrize("case", _case_params())
def test_matrix_cell(case):
    report = run_case(case)
    declared = True if case.workload_key in DIFFERENTIAL_KEYS else None
    assert report.functional_ok, report.detail
    assert report.trace_ok is declared, report.detail
    assert report.volume_ok is declared, report.detail
    assert report.passed and report.detail == ""


class TestEnumeration:
    def test_full_matrix_shape(self):
        cases = enumerate_cases()
        assert len(cases) == (
            len(DIFFERENTIAL_KEYS) * len(DEFAULT_SHAPES) * len(DEFAULT_SCALES)
        )
        assert len({c.case_id for c in cases}) == len(cases)
        assert {c.workload_key for c in _cases()} == set(WORKLOAD_KEYS)

    def test_seed_is_stable_across_processes(self):
        case = DifferentialCase("APSP", (2, 2, 2), "S")
        # crc32 of the case id — not hash(), which is per-process salted.
        assert case.seed == DifferentialCase("APSP", (2, 2, 2), "S").seed
        assert case.case_id == "APSP-2x2x2-S-P"

    def test_recording_backend_counts_dpus(self):
        from repro.collectives import registry

        case = DifferentialCase("HST", (4, 2, 2), "S")
        backend = TraceRecordingBackend(registry.create("P", case.machine()))
        assert backend.num_dpus == 16
        assert backend.trace == []

    def test_empty_case_list_runs_nothing(self):
        assert run_differential_matrix([]) == []

    @pytest.mark.parametrize(
        "key, scale, known",
        [("XX", "S", "'GEMV'"), ("HST", "XL", "'S', 'M', 'L'")],
    )
    def test_bad_case_rejected_when_built(self, key, scale, known):
        with pytest.raises(WorkloadError, match=known):
            DifferentialCase(key, (2, 2, 2), scale)


def _verify_cases():
    """The ``repro verify`` cell list: every workload once, 8 DPUs, scale S."""
    return enumerate_cases(
        keys=WORKLOAD_KEYS, shapes=((2, 2, 2),), scales=("S",)
    )


class TestSummary:
    @pytest.fixture(scope="class")
    def reports(self):
        return list(run_differential_matrix(_verify_cases()))

    def test_every_workload_covered(self, reports):
        assert len(reports) == len(WORKLOAD_KEYS)
        assert {r.case.workload_key for r in reports} == set(WORKLOAD_KEYS)
        assert set(DIFFERENTIAL_KEYS) < set(WORKLOAD_KEYS)

    def test_deterministic_under_seed(self, reports):
        assert list(run_differential_matrix(_verify_cases())) == reports

    def test_per_workload_rows(self, reports):
        rows = summarize_by_workload(reports)
        assert [r["workload"] for r in rows] == list(WORKLOAD_KEYS)
        for row in rows:
            assert row["cases"] == 1
            assert row["passed"] == 1
            assert row["failed"] == 0
            assert row["status"] == "ok"

    def test_failures_surface_detail(self):
        cases = enumerate_cases(
            keys=("SCAN",), shapes=((2, 2, 2),), scales=("S",)
        )
        reports = list(run_differential_matrix(cases))
        broken = reports[0].__class__(
            case=reports[0].case,
            functional_ok=False,
            trace_ok=True,
            volume_ok=True,
            detail="mismatch at shard 3",
        )
        rows = summarize_by_workload([broken])
        assert rows[0]["status"] == "FAIL"
        assert "mismatch at shard 3" in rows[0]["detail"]
