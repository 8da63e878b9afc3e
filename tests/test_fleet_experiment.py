"""The fleet_resilience experiment and its CLI."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, FleetError
from repro.experiments import fleet_resilience
from repro.fleet import home_shard
from repro.runner import REGISTRY, format_tables

pytestmark = pytest.mark.fleet

#: One small trial shared by most assertions (kill + revive mid-run).
SMALL = dict(tenants=3, requests_per_tenant=12, seed=5)
SHARDS = 3


def small_trial(trial=0, timeout_s=None, **outage):
    """Run trial ``trial`` of the SMALL fleet; ``outage`` overrides the
    kill defaults of :func:`fleet_resilience.fleet_config`."""
    config = fleet_resilience.fleet_config(
        trial=trial, shards=SHARDS, **SMALL, **outage
    )
    return fleet_resilience.run_trial(
        config, trial=trial, concurrency=4, timeout_s=timeout_s, **SMALL
    )


@pytest.fixture(scope="module")
def trial():
    return small_trial()


class TestRunTrial:
    def test_every_request_resolves_explicitly(self, trial):
        total = SMALL["tenants"] * SMALL["requests_per_tenant"]
        stats = trial["stats"]
        assert stats["submitted"] == total
        assert (
            stats["admitted"] + stats["rerouted"]
            + stats["rejected"] + stats["failed"]
        ) == total

    def test_outage_displaces_traffic_and_recovers(self, trial):
        assert trial["stats"]["rerouted"] > 0
        news = [t["new"] for t in trial["stats"]["transitions"]]
        assert news == ["down", "healthy"]
        # After the revive every shard serves again.
        assert set(trial["stats"]["health"].values()) == {"healthy"}

    def test_kill_lands_on_the_busiest_shard(self, trial):
        homes = [t["home"] for t in trial["tenants"].values()]
        loads = {shard: homes.count(shard) for shard in set(homes)}
        assert loads[trial["killed_shard"]] == max(loads.values())

    def test_unaffected_tenants_meet_the_slo(self, trial):
        assert trial["slo"]["ok"], trial["slo"]

    def test_tenant_summaries_conserve_requests(self, trial):
        for name, summary in trial["tenants"].items():
            resolved = (
                summary["admitted"] + summary["rerouted"]
                + summary["rejected"] + summary["failed"]
            )
            assert resolved == SMALL["requests_per_tenant"], name
            assert summary["home"] == home_shard(name, SHARDS)

    def test_trial_is_deterministic(self, trial):
        again = small_trial()
        assert json.dumps(again, sort_keys=True) == json.dumps(
            trial, sort_keys=True
        )

    def test_trials_differ_by_seed(self, trial):
        other = small_trial(trial=1)
        assert other["trial_seed"] != trial["trial_seed"]

    def test_result_is_json_serializable(self, trial):
        json.dumps(trial)

    def test_explicit_kill_window_is_honoured(self):
        value = small_trial(kill_after=8, outage_duration=12)
        assert (value["kill_after"], value["revive_after"]) == (8, 20)
        assert value["stats"]["submitted"] == 36

    def test_zero_duration_outage_never_revives(self):
        value = small_trial(kill_after=8, outage_duration=0)
        assert value["revive_after"] is None
        news = [t["new"] for t in value["stats"]["transitions"]]
        assert news == ["down"]
        shard = f"shard-{value['killed_shard']}"
        assert value["stats"]["health"][shard] == "down"

    def test_kill_after_the_last_submission_is_rejected(self):
        # 36 submissions: a kill at 36 fires on the last one, 37 never.
        assert fleet_resilience.fleet_config(kill_after=36, **SMALL)
        with pytest.raises(ConfigurationError, match="never fires"):
            fleet_resilience.fleet_config(kill_after=37, **SMALL)

    def test_wall_clock_timeout_fails_loudly(self):
        # The shortest timeout that is still valid: it expires long
        # before the fleet drains.
        with pytest.raises(FleetError, match="wall clock"):
            small_trial(timeout_s=1e-9)


class TestDriver:
    def test_registered(self):
        assert REGISTRY.get("fleet_resilience") is fleet_resilience.SPEC

    def test_format_table_shows_all_panels(self, trial):
        text = format_tables(fleet_resilience.build_tables([trial]))
        assert "fleet_resilience" in text
        assert "health transition" in text.lower()
        assert "slo" in text.lower()
        # The killed shard's tenants are starred in the load table.
        assert "*" in text


class TestCli:
    ARGS = [
        "fleet", "bench", "--shards", "3", "--tenants", "3",
        "--requests", "8", "--concurrency", "4", "--seed", "5",
    ]

    def test_bench_text_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed: 5")
        assert "fleet_resilience" in out

    def test_bench_json_output(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 5
        assert payload["stats"]["submitted"] == 24
        assert payload["slo"]["ok"] is True

    def test_status_reports_assignment(self, capsys):
        assert main(
            ["fleet", "status", "--shards", "3", "--tenants", "3", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["shards"]) == {"shard-0", "shard-1", "shard-2"}
        for name, entry in payload["tenants"].items():
            assert entry["home"] == home_shard(name, 3)
            assert entry["routed_to"] == entry["home"]

    def test_status_with_killed_shard_reroutes(self, capsys):
        assert main(
            [
                "fleet", "status", "--shards", "3", "--tenants", "4",
                "--kill-shard", "0", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"]["shard-0"]["health"] == "down"
        for entry in payload["tenants"].values():
            assert entry["routed_to"] != 0

    def test_kill_shard_out_of_range_is_a_usage_error(self, capsys):
        assert main(
            ["fleet", "status", "--shards", "2", "--kill-shard", "5"]
        ) == 2
