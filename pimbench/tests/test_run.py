"""End-to-end smoke runs of ``run.py`` on small inputs."""

import json
import shutil
import subprocess
import sys

import pytest

from common import ROOT, load_spec, metric_table

RUN = ROOT / "pimbench" / "run.py"


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_reports_every_metric_and_passes(tmp_path, trace):
    spec = load_spec()
    table = metric_table(spec, "per_layer" if trace == "1" else "end_to_end")
    out = tmp_path / "runs.json"
    done = _run("--quick", "--seconds", "0.5", "--seed", "3",
                "--trace", trace, "--out", str(out))
    assert done.returncode == 0, done.stderr

    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in spec["workloads"]]
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        assert set(run["metrics"]) == set(table)
        for name, metric in run["metrics"].items():
            assert metric["unit"] == table[name]["unit"]
            assert metric["n"] >= 1

    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in runs[-1]["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_the_repository_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "pimbench", tmp_path / "pimbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "pimbench/run.py", "--workload", "noc-credit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_usage_errors_exit_2():
    assert _run("--workload", "no-such-workload").returncode == 2
    assert _run("--seed", "-1").returncode == 2
    assert _run("--seed", "5", "--update-digests").returncode == 2
