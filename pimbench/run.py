"""Run the repository benchmark and print every metric.

    python3 pimbench/run.py --workload noc-credit --seed 0 --seconds 10 --trace 0

Each run starts the workload in a fresh interpreter (``worker.py``), so
set-up time and peak memory belong to that workload alone.  Set-up is
measured several times, each in its own short-lived process, and
reported as the median.  The last line of output is one JSON object::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

holding every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) that ``BENCHMARK.json`` lists.  The exit code is 1
when an output check fails, the run exceeds its time budget, or the
repository source is missing, and 2 on a usage error.

At the default seed the outputs of each workload must hash to the digest
committed in ``expected_digests.json``; ``--update-digests`` rewrites it
(review the diff like a golden).  ``--workload`` may be omitted to run
every workload, ``--repeat`` runs each several times (interleaved), and
``--out`` saves every run to a JSON file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import DEFAULT_SEED, ROOT, load_spec, metric_table

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "expected_digests.json"
#: Traces and per-run scratch directories (ignored by git).
OUT_DIR = ROOT / ".pimbench"
#: Set-up-only processes per run; with the measuring process's own
#: set-up that gives five samples, whose median is ``setup_s``.
SETUP_PROBES = 4
#: Wall-clock budget of one run, set-up probes included.
BUDGET_S = 170.0


class RunError(Exception):
    """A run that cannot produce a result (crash, timeout, bad output)."""


def _worker(
    workload: str, args: argparse.Namespace, scratch: Path, deadline: float,
    setup_only: bool = False,
) -> dict:
    """Start ``worker.py`` once and return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Single-threaded numerics, and one hash seed for every run.
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(scratch),
    ]
    if args.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    if args.trace:
        command += ["--trace-file", str(OUT_DIR / f"trace-{workload}.json")]
    command += ["--spawn-time", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: exceeded the {BUDGET_S:g} s budget") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{workload}: worker exited with code {done.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RunError(f"{workload}: worker printed no result") from None


def run_once(workload: str, args: argparse.Namespace, spec: dict) -> dict:
    """One measured run of ``workload``; the record ``--out`` stores."""
    deadline = time.monotonic() + BUDGET_S
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _worker(workload, args, scratch, deadline, setup_only=True)
                setups.append(probe["setup_s"])
        result = _worker(workload, args, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(result["setup_s"])

    kind = "per_layer" if args.trace else "end_to_end"
    table = metric_table(spec, kind)
    values = dict(result["metrics"])
    samples = {name: result["rounds"] for name in values}
    if not args.trace:
        ops = result["ops"]
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        samples.update(ops_per_s=ops, op_p50_ms=ops, op_tail_ms=ops,
                       setup_s=len(setups), peak_rss_mb=1)
    if set(values) != set(table):
        raise RunError(
            f"{workload}: metrics differ from BENCHMARK.json {kind}: "
            f"{sorted(set(values) ^ set(table))}"
        )
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": result["rounds"],
        "digest": result["digest"],
        "tail_pct": result.get("tail_pct"),
        "metrics": {
            name: {"value": values[name], "unit": table[name]["unit"],
                   "n": samples[name]}
            for name in table
        },
    }


def _report(record: dict, correct: bool) -> None:
    print(
        f"pimbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']}: {record['rounds']} round(s), "
        f"{record['attempted']} operation(s), {record['failed']} failed, "
        f"digest {record['digest'][:16]}, "
        f"{'outputs correct' if correct else 'OUTPUT CHECK FAILED'}"
    )
    for name, metric in record["metrics"].items():
        note = f"n={metric['n']}"
        if name == "op_tail_ms":
            note = f"p{record['tail_pct']:g}, {note}"
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']:8s} ({note})")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long an untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, help="save every run as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite expected_digests.json (default seed)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.repeat < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --repeat >= 1")
    pinned = args.seed == DEFAULT_SEED and not args.quick
    if args.update_digests and not pinned:
        parser.error("--update-digests needs the default seed and no --quick")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"pimbench: no repro source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    expected = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    workloads = [args.workload] if args.workload else names
    records = []
    all_correct = True
    for _ in range(args.repeat):
        for workload in workloads:
            try:
                record = run_once(workload, args, spec)
            except RunError as exc:
                print(f"pimbench: {exc}", file=sys.stderr)
                return 1
            correct = record["failed"] == 0
            if pinned and not args.update_digests:
                if record["digest"] != expected.get(workload):
                    print(
                        f"pimbench: {workload} output digest {record['digest']} "
                        f"!= expected {expected.get(workload)}",
                        file=sys.stderr,
                    )
                    correct = False
            if args.update_digests:
                expected[workload] = record["digest"]
            record["correct"] = correct
            all_correct &= correct
            records.append(record)
            _report(record, correct)
            print(json.dumps({
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()
                },
            }), flush=True)
    if args.update_digests:
        DIGESTS.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    if args.out:
        args.out.write_text(json.dumps({
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
            },
            "runs": records,
        }, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
