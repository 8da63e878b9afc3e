"""``repro conformance`` CLI: list, run, mutate, shrink."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_the_default_matrix(self, capsys):
        assert main(["conformance", "list"]) == 0
        out = capsys.readouterr().out
        assert "conformance matrix (45 points)" in out
        assert "all_reduce@2x2x1/256B" in out
        assert "broadcast@4x2x2/4096B" in out

    def test_json_mode(self, capsys):
        assert main(["conformance", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 45
        assert payload["points"][0] == {
            "collective": "all_reduce",
            "banks": 2,
            "chips": 2,
            "ranks": 1,
            "payload_bytes": 256,
        }


@pytest.mark.slow
class TestRun:
    def test_full_matrix_passes_then_reruns_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "conformance", "run", "--cache-dir", cache_dir,
            "--reproducer-dir", str(tmp_path),
        ]) == 0
        cold = capsys.readouterr().out
        assert "45 point(s), 0 failure(s)" in cold
        assert "45 miss(es)" in cold
        assert main([
            "conformance", "run", "--cache-dir", cache_dir,
            "--reproducer-dir", str(tmp_path),
        ]) == 0
        warm = capsys.readouterr().out
        assert "cache: 45 hit(s), 0 miss(es)" in warm
        # Same verdict either way.
        assert cold.split("cache:")[0] == warm.split("cache:")[0]

    def test_metrics_dump_written_alongside_the_run(
        self, tmp_path, capsys
    ):
        metrics_path = tmp_path / "m.json"
        assert main([
            "conformance", "run",
            "--cache-dir", str(tmp_path / "cache"),
            "--reproducer-dir", str(tmp_path),
            "--metrics", str(metrics_path),
        ]) == 0
        assert f"wrote {metrics_path}" in capsys.readouterr().out
        metrics = json.loads(metrics_path.read_text())["metrics"]
        assert metrics["conformance.points"]["value"] == 45.0
        assert metrics["conformance.cache.misses"]["value"] == 45.0

    def test_json_mode_reports_every_point(self, tmp_path, capsys):
        assert main([
            "conformance", "run", "--no-cache", "--json",
            "--reproducer-dir", str(tmp_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["points"] == 45
        assert payload["failures"] == 0
        assert payload["reproducers"] == []
        assert all(r["ok"] for r in payload["reports"])

    def test_mutated_run_fails_and_writes_reproducers(
        self, tmp_path, capsys
    ):
        assert main([
            "conformance", "run", "--no-cache",
            "--mutate", "drop-flit",
            "--reproducer-dir", str(tmp_path / "out"),
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        written = sorted((tmp_path / "out").glob("conformance-*.json"))
        assert written, "mutated run must leave reproducers behind"
        data = json.loads(written[0].read_text())
        assert data["format"] == "repro-conformance-reproducer"
        assert data["mutation"]["mode"] == "drop-flit"

    def test_shrink_replays_a_reproducer(self, tmp_path, capsys):
        reproducer_dir = tmp_path / "out"
        main([
            "conformance", "run", "--no-cache", "--mutate", "stall",
            "--reproducer-dir", str(reproducer_dir),
        ])
        capsys.readouterr()
        path = sorted(reproducer_dir.glob("conformance-*.json"))[0]
        # Still failing -> re-minimized, exit 1.
        assert main(["conformance", "shrink", str(path)]) == 1
        assert "minimized to" in capsys.readouterr().out


class TestBadInput:
    def test_unknown_mutation_mode_is_a_usage_error(self, capsys):
        assert main([
            "conformance", "run", "--no-cache", "--mutate", "melt",
        ]) == 2
        assert "unknown mutation" in capsys.readouterr().err

    def test_shrink_of_garbage_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["conformance", "shrink", str(path)]) == 2
        assert "conformance shrink failed" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["conformance", "run", "--seed", "-1"]) == 2
