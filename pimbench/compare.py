"""Compare two sets of benchmark runs: a parent (A) and a change (B).

    python3 pimbench/compare.py A.json B.json

Both files are ``run.py --out`` files (or committed baselines, which
have the same form).  For each workload and metric it prints A's and B's
median and quartiles and the fraction of index-paired runs B won, then a
verdict:

* end-to-end metrics, against the bound in ``BENCHMARK.json``:
  ``regressed`` when B's median is worse than A's by more than the bound;
  ``unresolved`` when A's own spread (interquartile range over median)
  exceeds the bound, unless every B run is better (``improved``) or every
  B run is worse by more than the bound (``regressed``); ``improved`` when
  B wins at least 90% of the pairs and the medians differ by more than
  A's spread; otherwise ``unchanged``;
* deterministic per-layer metrics (counts, ratios of counts, simulated
  quantities) with ``==``: ``same``, ``changed (better)``, ``changed
  (worse)``, or ``nondeterministic`` when one side's runs disagree;
* host-time per-layer metrics have no bound and are listed for reading.

Exit status: 0 when nothing regressed, 1 when a metric regressed, a
deterministic metric got worse or disagreed with itself, or B has failed
operations; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import load_spec, metric_table

#: Share of pairs a change must win before a gain may be claimed.
WIN_SHARE = 0.9

#: Per-layer units whose values are deterministic for a given seed, so
#: two runs of one commit must agree exactly (simulated quantities,
#: work counts and ratios of counts).  Host-time units are absent.
EXACT_UNITS = frozenset({"count", "ratio", "cycles", "sim_us"})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _worse(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _is_better(a: float, b: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def judge(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """The verdict on one end-to-end metric of one workload."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    pairs = list(zip(a, b))
    won = sum(_is_better(x, y, better) for x, y in pairs) / len(pairs)
    shift = _worse(a_med, b_med, better)
    all_better = all(_is_better(x, y, better) for x in a for y in b)
    all_worse = all(_is_better(y, x, better) for x in a for y in b)
    if spread > bound:
        if all_better:
            verdict = "improved"
        elif all_worse and shift > bound:
            verdict = "regressed"
        else:
            verdict = "unresolved"
    elif shift > bound:
        verdict = "regressed"
    elif won >= WIN_SHARE and -shift > spread:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
        "spread": spread, "won": won, "change": -shift, "verdict": verdict,
    }


def judge_exact(a: list[float], b: list[float], better: str) -> str:
    if len(set(a)) > 1 or len(set(b)) > 1:
        return "nondeterministic"
    if a[0] == b[0]:
        return "same"
    return "changed (better)" if _is_better(a[0], b[0], better) else "changed (worse)"


def _load(path: Path) -> dict[tuple[str, int], list[dict]]:
    data = json.loads(path.read_text())
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for run in data["runs"]:
        runs[(run["workload"], run["trace"])].append(run)
    return runs


def compare(a_path: Path, b_path: Path, out=sys.stdout) -> int:
    """Print the comparison; return the exit status."""
    spec = load_spec()
    tables = {0: metric_table(spec, "end_to_end"), 1: metric_table(spec, "per_layer")}
    a_runs, b_runs = _load(a_path), _load(b_path)
    groups = sorted(set(a_runs) & set(b_runs))
    if not groups:
        raise ValueError("the two files share no (workload, trace) runs")
    status = 0
    print("| workload | trace | metric | A median [Q1, Q3] | B median [Q1, Q3] "
          "| change | B won | verdict |", file=out)
    print("|---|---|---|---|---|---|---|---|", file=out)
    for workload, trace in groups:
        a_group, b_group = a_runs[(workload, trace)], b_runs[(workload, trace)]
        failed = sum(run["failed"] for run in b_group)
        if failed or not all(run.get("correct", True) for run in b_group):
            print(f"| {workload} | {trace} | (outputs) | | | | | "
                  f"B failed {failed} operation(s) |", file=out)
            status = 1
        for name, entry in tables[trace].items():
            a = [run["metrics"][name]["value"] for run in a_group]
            b = [run["metrics"][name]["value"] for run in b_group]
            if trace and entry["unit"] in EXACT_UNITS:
                verdict = judge_exact(a, b, entry["better"])
                if verdict in ("nondeterministic", "changed (worse)"):
                    status = 1
                print(f"| {workload} | {trace} | {name} | {a[0]:.6g} | "
                      f"{b[0]:.6g} | | | {verdict} |", file=out)
                continue
            result = judge(a, b, entry["better"], entry.get("bound", float("inf")))
            verdict = result["verdict"] if "bound" in entry else "(no bound)"
            if verdict == "regressed":
                status = 1
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = result["a"], result["b"]
            print(f"| {workload} | {trace} | {name} | "
                  f"{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}] | "
                  f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] | "
                  f"{result['change']:+.1%} | {result['won']:.0%} | {verdict} |",
                  file=out)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path, help="runs of the parent (A)")
    parser.add_argument("change", type=Path, help="runs of the change (B)")
    args = parser.parse_args(argv)
    try:
        return compare(args.parent, args.change)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
