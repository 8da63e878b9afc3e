"""The tenant_service_load experiment and its CLI front-ends."""

import json

import pytest

from repro.cli import main
from repro.config import small_test_system
from repro.errors import ServiceError
from repro.experiments import tenant_service_load

pytestmark = pytest.mark.service

#: Small-but-real run: 2 tenants x 24 requests on the 8-DPU machine.
SMALL = dict(tenants=2, requests_per_tenant=24, concurrency=4, seed=5)


def small_run(**overrides):
    params = {**SMALL, **overrides}
    return tenant_service_load.run(machine=small_test_system(), **params)


class TestExperiment:
    def test_conserves_every_request(self):
        result = small_run()
        stats = result.stats
        submitted = SMALL["tenants"] * SMALL["requests_per_tenant"]
        assert stats["submitted"] == submitted
        assert stats["admitted"] + stats["rejected"] == submitted
        assert stats["queued"] == 0

    def test_burst_produces_explicit_rejections_then_none(self):
        result = small_run()
        # The opening burst (16) deliberately exceeds max_queued (8):
        # each tenant sees exactly 8 deterministic rejections, and the
        # paced steady state sees zero.
        for _, _, submitted, admitted, rejected, _, _ in result.tenant_rows:
            assert submitted == SMALL["requests_per_tenant"]
            assert rejected == 8
            assert admitted == submitted - 8

    def test_aligned_payloads_all_replay(self):
        stats = small_run().stats
        assert stats["fallbacks"] == 0
        assert stats["replayed"] == stats["admitted"]

    def test_percentiles_and_slos_come_from_the_latency_family(self):
        result = small_run()
        for tenant, _, _, admitted, _, p50, p99 in result.tenant_rows:
            assert admitted > 0
            assert 0 < p50 <= p99
        assert result.slo.ok, [
            check.objective.describe() for check in result.slo.violations
        ]
        # One p99 objective per tenant + the p999 and rejection-rate gates.
        assert len(result.slo.checks) == SMALL["tenants"] + 2

    def test_is_deterministic(self):
        first, second = small_run(), small_run()
        assert first.stats == second.stats
        assert first.tenant_rows == second.tenant_rows

    def test_seed_changes_the_mix(self):
        first, second = small_run(), small_run(seed=6)
        assert first.tenant_rows != second.tenant_rows

    def test_zero_rejections_is_rate_zero_not_missing_metric(self):
        # 8 requests fit inside max_queued=8, so nothing is rejected;
        # the rejection-rate SLO must read 0 (the counter family is
        # materialized at start), not fail on a missing metric.
        result = small_run(tenants=1, requests_per_tenant=8)
        assert result.stats["rejected"] == 0
        rate = [
            check for check in result.slo.checks
            if check.objective.name == "rejection rate <= 50%"
        ]
        assert len(rate) == 1
        assert rate[0].observed == 0.0
        assert rate[0].passed

    def test_wall_clock_timeout_fails_loudly(self):
        with pytest.raises(ServiceError, match="wall clock|deadlocked"):
            # The shortest timeout that is still valid: it expires
            # before the drive can finish.
            small_run(timeout_s=1e-9)


class TestCli:
    ARGS = [
        "--tenants", "2", "--requests", "24", "--concurrency", "4",
        "--seed", "5",
    ]

    def test_serve_alias_prints_the_report(self, capsys):
        assert main(["serve", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "Tenant service load" in out
        assert "Service SLOs" in out
        assert "zero lost" in out

    def test_service_bench_json_is_machine_readable(self, capsys):
        assert main(["service", "bench", *self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["stats"]
        assert stats["admitted"] + stats["rejected"] == stats["submitted"]
        assert len(payload["tenants"]) == 2
        assert all(row["p99_s"] > 0 for row in payload["tenants"])
        assert payload["slo"]["ok"] is True

    def test_slo_file_failure_exits_nonzero(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({"objectives": [
            {"metric": "service.admitted", "stat": "value", "op": "<",
             "threshold": 1, "name": "impossible"},
        ]}))
        assert main([
            "service", "bench", *self.ARGS,
            "--metrics", str(tmp_path / "m.json"), "--slo", str(slo),
        ]) == 1
        assert "FAIL impossible" in capsys.readouterr().out

    def test_bad_config_fails_cleanly(self, capsys):
        assert main(["serve", "--window", "0"]) == 2
        assert "service bench failed" in capsys.readouterr().err
