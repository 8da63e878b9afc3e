"""The comparison gate: verdict rules, exit codes, and an injected 2x
slowdown of each workload's dominant layer."""

import io
import json
from contextlib import nullcontext

import pytest

import compare
import layers
import worker
from common import load_spec, metric_table
from workloads import WORKLOADS

#: The call of the layer that dominates each workload, whose cost is
#: doubled to make a 2x slowdown.  No ``repro`` layer dominates the fleet
#: (its time is spread over routing, admission, the service scheduler
#: and asyncio itself), so there every event-loop step is doubled.
DOMINANT = {
    "noc-credit": "repro.noc.simulator:NocSimulator.run",
    "verify-cold": "repro.noc.simulator:NocSimulator.run",
    "serve-fleet": "asyncio.events:Handle._run",
    "paper-sweep": "repro.runner.executor:run_experiment",
}


def test_judge_rules():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.judge(steady, [50.0, 50.5, 49.5, 50.2, 49.8], "higher", 0.1)[
        "verdict"] == "regressed"
    assert compare.judge(steady, [99.0, 100.0, 101.0, 100.0, 99.8], "higher", 0.1)[
        "verdict"] == "unchanged"
    assert compare.judge(steady, [130.0, 131.0, 129.0, 130.0, 132.0], "higher", 0.1)[
        "verdict"] == "improved"
    noisy = [100.0, 60.0, 140.0, 80.0, 120.0]
    assert compare.judge(noisy, [95.0, 65.0, 130.0, 85.0, 115.0], "higher", 0.1)[
        "verdict"] == "unresolved"
    assert compare.judge(noisy, [20.0, 25.0, 22.0, 21.0, 24.0], "higher", 0.1)[
        "verdict"] == "regressed"
    assert compare.judge([1.0, 1.1, 0.9], [2.0, 2.1, 1.9], "lower", 0.1)[
        "verdict"] == "regressed"


def test_judge_exact():
    assert compare.judge_exact([5, 5], [5, 5], "lower") == "same"
    assert compare.judge_exact([5, 5], [4, 4], "lower") == "changed (better)"
    assert compare.judge_exact([5, 5], [6, 6], "lower") == "changed (worse)"
    assert compare.judge_exact([5, 6], [5, 5], "lower") == "nondeterministic"


def _record(workload, trace, values, failed=0):
    return {"workload": workload, "trace": trace, "failed": failed,
            "correct": failed == 0,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def _write(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_exit_codes(tmp_path):
    spec = load_spec()
    e2e = {name: 10.0 for name in metric_table(spec, "end_to_end")}
    layer = {name: 3 for name in metric_table(spec, "per_layer")}
    base = [_record("noc-credit", 0, e2e), _record("noc-credit", 1, layer)]
    a = _write(tmp_path / "a.json", base * 3)
    assert compare.compare(a, a, io.StringIO()) == 0

    slow = dict(e2e, ops_per_s=5.0)
    b = _write(tmp_path / "b.json", [_record("noc-credit", 0, slow)] * 3)
    out = io.StringIO()
    assert compare.compare(a, b, out) == 1
    assert "| noc-credit | 0 | ops_per_s |" in out.getvalue()

    more_events = dict(layer, **{"noc.events": 4})
    c = _write(tmp_path / "c.json", [_record("noc-credit", 1, more_events)] * 3)
    assert compare.compare(a, c, io.StringIO()) == 1

    failing = _write(tmp_path / "d.json", [_record("noc-credit", 0, e2e, failed=1)])
    assert compare.compare(a, failing, io.StringIO()) == 1

    (tmp_path / "garbage.json").write_text("{not json")
    assert compare.main([str(a), str(tmp_path / "garbage.json")]) == 2
    assert compare.main([str(a), str(tmp_path / "missing.json")]) == 2
    other = _write(tmp_path / "e.json", [_record("paper-sweep", 0, e2e)])
    assert compare.main([str(a), str(other)]) == 2


@pytest.mark.parametrize("workload", sorted(DOMINANT))
def test_doubled_dominant_layer_is_flagged(tmp_path, workload):
    runs = {"A": [], "B": []}
    for _ in range(3):
        for side in "AB":
            instance = WORKLOADS[workload](3, True, tmp_path)
            slowed = layers.doubled(DOMINANT[workload]) if side == "B" else nullcontext()
            with slowed:
                result = worker.measure(instance, seconds=0.5)
            assert result["failed"] == 0
            # Set-up and memory are not what this test measures.
            values = dict(result["metrics"], setup_s=1.0, peak_rss_mb=1.0)
            runs[side].append(_record(workload, 0, values))
    out = io.StringIO()
    status = compare.compare(
        _write(tmp_path / "a.json", runs["A"]),
        _write(tmp_path / "b.json", runs["B"]),
        out,
    )
    row = next(line for line in out.getvalue().splitlines()
               if f"| {workload} | 0 | ops_per_s |" in line)
    assert status == 1 and row.endswith("| regressed |"), out.getvalue()
