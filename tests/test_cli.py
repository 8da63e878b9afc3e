"""Command-line interface."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("fig02", "fig10", "fig13", "table04", "ablations"):
            assert key in out

    def test_json_mode_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = {e["id"] for e in payload["experiments"]}
        assert {"fig02", "fig10", "table04"} <= ids
        assert all("summary" in e for e in payload["experiments"])

    def test_closed_pipe_exits_1_without_a_traceback(self):
        # `repro list | head -1`: the reader is gone before the output
        # is written.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                str(Path(repro.__file__).resolve().parent.parent),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err, err.decode()


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "table05", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "Ring(inter-bank)" in out

    def test_run_two_panel_experiment(self, capsys):
        assert main(["run", "fig03", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3a" in out and "Fig 3b" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_cache_suppresses_summary_line(self, capsys):
        assert main(["run", "table05", "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_cached_run_reports_hits_on_second_pass(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table05", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hit(s), 1 miss(es)" in first
        assert main(["run", "table05", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "cache: 1 hit(s), 0 miss(es)" in second
        # The tables themselves must be identical either way.
        assert first.split("cache:")[0] == second.split("cache:")[0]

    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        assert main(["run", "fig16", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "fig16", "--no-cache", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_schedcache_line_counts_this_run_only(self, capsys):
        # fig13 looks up two schedules per run, serial or parallel.  A
        # line summing to more counts earlier runs in this process too.
        for extra in (["--jobs", "2"], [], []):
            assert main(["run", "fig13", "--no-cache", *extra]) == 0
            out = capsys.readouterr().out
            (line,) = [
                line for line in out.splitlines()
                if line.startswith("schedcache:")
            ]
            hits, compiles = re.match(
                r"schedcache: (\d+) hit\(s\) .*, (\d+) compile", line
            ).groups()
            assert int(hits) + int(compiles) == 2, (extra, line)

    def test_invalid_jobs_fails(self, capsys):
        assert main(["run", "table05", "--jobs", "0", "--no-cache"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_clear_cache_flag_purges_before_running(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table05", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["run", "table05", "--cache-dir", cache_dir,
                     "--clear-cache"]) == 0
        captured = capsys.readouterr()
        assert "cleared 1 cached result(s)" in captured.err
        assert "cache: 0 hit(s), 1 miss(es)" in captured.out


class TestRunSeed:
    def test_seed_is_echoed_and_changes_nothing_for_unseeded(
        self, capsys
    ):
        assert main(["run", "table05", "--no-cache"]) == 0
        plain = capsys.readouterr().out
        assert "seed:" not in plain
        assert main(["run", "table05", "--no-cache", "--seed", "3"]) == 0
        seeded = capsys.readouterr().out
        assert "seed: 3" in seeded
        # table05 has no seeded points; the tables are identical.
        assert seeded.split("seed:")[0].strip() == plain.strip()


class TestFaults:
    def test_list_names_every_preset(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("stragglers", "fail-stop", "mixed", "corruption"):
            assert name in out

    def test_list_json(self, capsys):
        assert main(["faults", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in payload["campaigns"]}
        assert {"stragglers", "mixed", "fail-stop"} <= names

    def test_run_preset_prints_summary(self, capsys):
        assert main(["faults", "run", "stragglers", "--trials", "2",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "campaign 'stragglers': 2 trials, seed 5" in out
        assert "completion rate" in out
        assert "p50" in out

    def test_run_json_is_deterministic(self, capsys):
        argv = ["faults", "run", "bus-stalls", "--trials", "2",
                "--seed", "1", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["seed"] == 1
        assert first["trials"] == 2

    def test_run_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "from-file",
            "trials": 2,
            "payload_bytes": 65536,
            "model": {"bank_straggler_rate": 0.5,
                      "straggler_severity": 2.0},
        }))
        assert main(["faults", "run", str(spec), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "from-file"
        assert payload["trials"] == 2

    def test_unknown_campaign_fails(self, capsys):
        assert main(["faults", "run", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_bad_spec_file_fails_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"name": "x", "warp_factor": 9}))
        assert main(["faults", "run", str(spec)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_bad_payload_override_fails(self, capsys):
        assert main(["faults", "run", "stragglers",
                     "--payload", "12XB"]) == 2

    def test_run_metrics_dump_includes_latency_histogram(
        self, tmp_path, capsys
    ):
        metrics_path = tmp_path / "m.json"
        assert main(["faults", "run", "mixed", "--trials", "4",
                     "--metrics", str(metrics_path)]) == 0
        assert f"wrote {metrics_path}" in capsys.readouterr().out
        metrics = json.loads(metrics_path.read_text())["metrics"]
        hist = metrics["faults.latency_s{campaign=mixed}"]
        assert hist["kind"] == "histogram"
        assert hist["count"] == 4
        assert "p999" in hist
        assert metrics["faults.campaigns"]["value"] == 1.0

    def test_run_slo_violation_exits_nonzero(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({"objectives": [
            {"metric": "faults.latency_s", "labels": {"campaign": "mixed"},
             "stat": "p50", "op": "<", "threshold": 1e-12,
             "name": "impossible"},
        ]}))
        assert main(["faults", "run", "mixed", "--trials", "4",
                     "--metrics", str(tmp_path / "m.json"),
                     "--slo", str(slo)]) == 1
        out = capsys.readouterr().out
        assert "FAIL impossible" in out

    def test_run_slo_pass_exits_zero(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps([
            {"metric": "faults.latency_s", "labels": {"campaign": "mixed"},
             "stat": "p999", "op": "<", "threshold": 1e6},
        ]))
        assert main(["faults", "run", "mixed", "--trials", "4",
                     "--metrics", str(tmp_path / "m.json"),
                     "--slo", str(slo)]) == 0
        assert "all objectives met" in capsys.readouterr().out

    def test_slo_without_metrics_is_an_error(self, tmp_path, capsys):
        slo = tmp_path / "slo.json"
        slo.write_text("[]")
        assert main(["faults", "run", "mixed", "--trials", "2",
                     "--slo", str(slo)]) == 2
        assert "--metrics" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "nope")]) == 0
        out = capsys.readouterr().out
        assert "(empty)" in out

    def test_stats_and_clear_roundtrip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "fig16", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "4 entries" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared 4 cached result(s)" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_stats_json_mode(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table05", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir",
                     cache_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["experiments"]["table05"]["entries"] == 1


class TestInfo:
    def test_info_summarizes_machine(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "256 DPUs" in out
        assert "inter-rank 16.80 GB/s" in out

    def test_json_mode_reports_machine_and_backends(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"]["num_dpus"] == 256
        assert "P" in payload["backends"]
        assert payload["tiers"]["inter_rank_bytes_per_s"] > 0


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "allreduce", "--payload", "1MB",
                     "--out", str(out_path), "--quiet"]) == 0
        trace = json.loads(out_path.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in events}
        assert "bank-RS" in names and "bank-AG" in names
        assert all(e["dur"] >= 0 for e in events)

    def test_trace_spans_match_timeline_offsets(self, tmp_path):
        from repro.core.timeline import allreduce_timeline

        out_path = tmp_path / "trace.json"
        assert main(["trace", "allreduce", "--payload", "1MB",
                     "--out", str(out_path), "--quiet"]) == 0
        trace = json.loads(out_path.read_text())
        timeline = allreduce_timeline(1 << 20)
        by_name = {
            e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"
        }
        for entry in timeline.entries:
            event = by_name[f"{entry.domain}-{entry.phase}"]
            assert event["ts"] == pytest.approx(entry.start_s * 1e6)
            assert event["dur"] == pytest.approx(entry.duration_s * 1e6)

    def test_tree_dump_on_stdout(self, capsys):
        assert main(["trace", "allreduce", "--payload", "1MB"]) == 0
        out = capsys.readouterr().out
        assert "trace/all_reduce" in out
        assert "bank-RS" in out

    def test_fallback_backend_gets_component_spans(self, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "alltoall", "--backend", "D",
                     "--payload", "32KB", "--out", str(out_path),
                     "--quiet"]) == 0
        names = {
            e["name"]
            for e in json.loads(out_path.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert "inter-chip" in names or "inter-rank" in names

    def test_metrics_dump(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.csv"
        assert main(["trace", "allreduce", "--payload", "1MB",
                     "--metrics", str(metrics_path), "--quiet"]) == 0
        text = metrics_path.read_text()
        assert text.startswith("name,kind,")
        assert "collective.payload_bytes" in text

    def test_unknown_collective_fails(self, capsys):
        assert main(["trace", "bogus"]) == 2
        assert "unknown collective" in capsys.readouterr().err

    def test_bad_payload_fails(self, capsys):
        assert main(["trace", "allreduce", "--payload", "12XB"]) == 2
        assert "size" in capsys.readouterr().err

    def test_unsupported_backend_request_fails_cleanly(self, capsys):
        assert main(["trace", "allreduce", "--backend", "N",
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "trace failed" in err and "backend=N" in err


class TestRunInstrumented:
    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "run.json"
        metrics_path = tmp_path / "run-metrics.json"
        assert main(["run", "fig11", "--no-cache",
                     "--trace", str(trace_path),
                     "--metrics", str(metrics_path)]) == 0
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "experiment/fig11" in names
        metrics = json.loads(metrics_path.read_text())["metrics"]
        assert "collective.requests" in metrics


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["service", "bench", "--tenants", "0"],
            ["service", "bench", "--requests", "0"],
            ["service", "bench", "--concurrency", "0"],
            ["serve", "--timeout", "-1"],
            ["fleet", "bench", "--tenants", "0"],
            ["fleet", "bench", "--requests", "0"],
            ["fleet", "bench", "--concurrency", "0"],
            ["fleet", "serve", "--timeout", "0"],
            ["schedcache", "compile", "--shape", "0x2x2"],
            ["bench", "run"],
            ["faults", "run", "bogus"],
            ["faults", "run", "stragglers", "--payload", "12XB"],
            ["faults", "run", "stragglers", "--trials", "0"],
            ["faults", "run", "stragglers", "--seed", "-1"],
            ["faults", "run", "{spec}"],
            ["faults", "run", "mixed", "--slo", "{slo}"],
            ["faults", "run", "mixed", "--metrics", "{metrics}",
             "--slo", "{missing}"],
            ["service", "bench", "--tenants", "2", "--requests", "4",
             "--metrics", "{metrics}", "--slo", "{bad_slo}"],
            ["fleet", "bench", "--tenants", "2", "--requests", "4",
             "--metrics", "{metrics}", "--slo", "{bad_slo}"],
            ["serve", "--window", "0"],
            ["fleet", "bench", "--shards", "0"],
            ["fleet", "bench", "--kill-shard", "0", "--kill-shard", "2"],
            ["fleet", "bench", "--shards", "2", "--tenants", "2",
             "--requests", "4", "--kill-after", "1000"],
            ["fleet", "status", "--shards", "0"],
            ["fleet", "status", "--tenants", "-1"],
            ["conformance", "shrink", "{spec}"],
            ["trace", "bogus"],
            ["run", "table05", "--jobs", "0"],
            ["conformance", "run", "--seed", "-1"],
            ["serve", "--tenants", "0"],
        ],
        ids=" ".join,
    )
    def test_exits_2_fast_with_a_clean_message(self, argv, tmp_path, capsys):
        # {spec} is a file that is no campaign spec or reproducer (an
        # unknown field); {slo} is a valid SLO file, {bad_slo} is not
        # JSON and {missing} does not exist.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "warp_factor": 9}))
        slo = tmp_path / "slo.json"
        slo.write_text("[]")
        bad_slo = tmp_path / "bad.json"
        bad_slo.write_text("{not json")
        metrics = tmp_path / "m.csv"
        argv = [
            a.format(
                spec=spec, slo=slo, bad_slo=bad_slo, metrics=metrics,
                missing=tmp_path / "missing.json",
            )
            for a in argv
        ]
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unknown commands
            code = exc.code
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.strip() and "Traceback" not in err
        # Well under the 120 s default --timeout: nothing was driven.
        assert elapsed < 10.0
        assert not metrics.exists()


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all workloads verified" in out
        assert "GEMV" in out and "NTT" in out

    def test_failing_runner_prints_fail_line(self, capsys, monkeypatch):
        from repro.workloads import differential

        def broken(case, backend, rng):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(differential._RUNNERS, "GEMV", broken)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "  GEMV   FAIL (RuntimeError: injected fault)" in out
        assert "  MLP    ok" in out
        assert "all workloads verified" not in out

    def test_undeclared_collective_fails_the_trace_check(
        self, capsys, monkeypatch
    ):
        from repro.workloads import ScanWorkload

        phases = ScanWorkload.phases

        def one_extra(self, machine):
            declared = phases(self, machine)
            return declared + declared[-1:]

        monkeypatch.setattr(ScanWorkload, "phases", one_extra)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        (scan,) = [
            line for line in out.splitlines() if line.startswith("  SCAN ")
        ]
        assert "FAIL" in scan and "trace mismatch" in scan
