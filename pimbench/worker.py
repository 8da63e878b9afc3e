"""One run of one workload, in its own interpreter.

``run.py`` starts this script in a fresh process (with ``src`` on
``PYTHONPATH``) so that set-up time and peak memory belong to one
workload alone.  It prints one JSON object as its last line of output.

* ``--setup-only``: import, build the workload's inputs, report how long
  that took since ``--spawn-time`` and exit (a set-up sample).
* ``--trace 0``: run rounds until ``--seconds`` have passed and report the
  end-to-end metrics.
* ``--trace 1``: run the workload's fixed number of trace rounds twice,
  untraced and then under :mod:`layers`, check both produce the same
  outputs, report the per-layer metrics and write the spans to
  ``--trace-file``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from common import nearest_rank


def digest(output: object) -> str:
    """sha256 of the canonical JSON form of a round's outputs."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_rounds(workload, count: int | None = None, seconds: float = 0.0):
    """Run ``count`` rounds, or rounds until ``seconds`` have passed.

    Returns the rounds and their digests.  A round that repeats an
    earlier round's inputs but not its outputs has every operation
    counted as failed.
    """
    rounds, digests = [], []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(rounds) == count:
                break
        elif rounds and time.perf_counter() - start >= seconds:
            break
        index = len(rounds)
        # Each round starts from a collected heap, so when the collector
        # runs inside it depends on the round alone, not on the garbage
        # earlier rounds left behind.
        gc.collect()
        result = workload.run_round(index)
        fingerprint = digest(result.output)
        if index >= workload.period and fingerprint != digests[index % workload.period]:
            print(
                f"pimbench: {workload.name} round {index} did not reproduce "
                f"round {index % workload.period}",
                file=sys.stderr,
            )
            result.failed = result.attempted
        rounds.append(result)
        digests.append(fingerprint)
    return rounds, digests


def end_to_end(workload, rounds) -> dict[str, float]:
    """The end-to-end metrics the worker measures (all but ``setup_s``)."""
    latencies = [s for r in rounds for s in r.latencies_s]
    busy = sum(r.busy_s for r in rounds)
    return {
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": nearest_rank(latencies, workload.tail_pct) * 1e3,
    }


def measure(workload, seconds: float) -> dict:
    """An untraced run of at least ``seconds``."""
    rounds, digests = run_rounds(workload, seconds=seconds)
    return {
        "rounds": len(rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "digest": digests[0],
        "ops": sum(len(r.latencies_s) for r in rounds),
        "tail_pct": workload.tail_pct,
        "metrics": end_to_end(workload, rounds),
    }


def trace(workload, trace_file: Path | None) -> dict:
    """The same rounds untraced, then traced; per-layer metrics."""
    import layers

    # One round first, so the once-per-process costs (lazy imports, the
    # memoized code fingerprint) land in neither timed pass.
    run_rounds(workload, count=1)
    plain, plain_digests = run_rounds(workload, count=workload.trace_rounds)
    tracer = layers.Tracer()
    with layers.installed(tracer):
        traced, traced_digests = run_rounds(workload, count=workload.trace_rounds)
    if trace_file is not None:
        tracer.write(trace_file)
    rounds = plain + traced
    failed = sum(r.failed for r in rounds)
    if traced_digests != plain_digests:
        print(
            f"pimbench: {workload.name} traced outputs differ from untraced",
            file=sys.stderr,
        )
        failed = sum(r.attempted for r in traced) + sum(r.failed for r in plain)
    return {
        "rounds": len(traced),
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "digest": plain_digests[0],
        "metrics": layers.layer_metrics(
            tracer,
            wall_s=sum(r.busy_s for r in traced),
            untraced_wall_s=sum(r.busy_s for r in plain),
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.quick, args.scratch)
    result = {"setup_s": time.monotonic() - args.spawn_time}
    if not args.setup_only:
        if args.trace:
            result.update(trace(workload, args.trace_file))
        else:
            result.update(measure(workload, args.seconds))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = peak_kb / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
