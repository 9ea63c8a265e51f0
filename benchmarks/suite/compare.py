"""``run.py compare PARENT.json CHANGE.json``: judge a change against its
parent from alternating runs of both.

Each file is what ``run.py --output`` writes: ``{"runs": [record, ...]}``.
Untraced records are grouped by workload and paired in file order, so
run the parent and the change alternately, at least ten times each.
Directions and bounds come only from ``BENCHMARK.json``; names never
decide which way is better.

Per end-to-end metric and workload the verdict is one of:

* ``gain`` -- the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- either side's spread (interquartile range over
  median) exceeds the bound, unless every change run reads better than
  every parent run;
* ``within bound`` -- otherwise.

A change with more failed operations than its parent claims no gain and
counts as a regression. Exit status: 1 on any regression, 2 when a
workload has fewer than ten pairs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
ROOT = Path(__file__).resolve().parents[2]


def quartiles(values: list) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """Verdict for one metric from paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    n = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent[:n], change[:n]))
    worse = -sign * (cm - pm) / abs(pm)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = (min(change) > max(parent) if better == "higher"
                  else max(change) < min(parent))
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif wins >= 0.9 * n and sign * (cm - pm) > p3 - p1:
        verdict = "gain"
    else:
        verdict = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": n, "worse": worse, "spread": spread,
            "verdict": verdict}


def untraced_runs(path: Path) -> dict:
    runs: dict = {}
    for record in json.loads(path.read_text())["runs"]:
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(parent_path: Path, change_path: Path, bench: dict) -> int:
    parent, change = untraced_runs(parent_path), untraced_runs(change_path)
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        p_runs, c_runs = parent[workload], change[workload]
        pairs = min(len(p_runs), len(c_runs))
        p_failed = sum(r["failed"] for r in p_runs[:pairs])
        c_failed = sum(r["failed"] for r in c_runs[:pairs])
        print(f"== {workload}: {pairs} pairs; failed ops parent {p_failed}"
              f" change {c_failed}")
        if pairs < MIN_PAIRS:
            print(f"   fewer than {MIN_PAIRS} pairs: not judged")
            status = max(status, 2)
            continue
        if c_failed > p_failed:
            print("   REGRESSION: the change fails more operations")
            status = 1
        for metric in bench["end_to_end"]:
            name = metric["name"]
            r = judge([x["metrics"][name]["value"] for x in p_runs[:pairs]],
                      [x["metrics"][name]["value"] for x in c_runs[:pairs]],
                      metric["better"], metric["bound"])
            if r["verdict"] == "gain" and c_failed > p_failed:
                r["verdict"] = "within bound"
            if r["verdict"] == "regression":
                status = 1
            (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
            print(f"   {name:<12} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  worse "
                  f"{r['worse']:+.1%} (bound {metric['bound']:.0%}, spread "
                  f"{r['spread']:.1%})  wins {r['wins']}/{r['pairs']}  "
                  f"{r['verdict']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.parent, args.change, bench)


if __name__ == "__main__":
    sys.exit(main())
