"""Compare benchmark results of a parent commit and a change.

    python benchmarks/perf/compare.py --parent P1.json P2.json ... \\
                                      --change C1.json C2.json ...

Each file is a result written by ``run.py --json`` (one workload or all)
or a file holding ``{"passes": [result, ...]}`` such as ``baseline.json``.
The i-th parent and the i-th change form one pair; run them alternately,
parent first in odd pairs and change first in even ones.  Every
(end-to-end metric, workload) row gets one label:

* ``improved`` -- at least :data:`MIN_PAIRS` pairs, the change wins at
  least 9 in 10 of them (ties count for neither side), and the medians
  differ by more than the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound from ``BENCHMARK.json``, however wide the
  parent's spread;
* ``unresolved`` -- otherwise, when the parent's own spread (IQR) is
  wider than the bound, so no-worse cannot be shown, unless every change
  run reads better than every parent run;
* ``no-worse`` -- anything else.

Exit status is 1 when any row regressed or a change run failed more
correctness checks than every parent run, 2 when the results were not
taken with the same ``--seconds`` and size, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        payload = json.loads(Path(path).read_text())
        results.extend(payload["passes"] if "passes" in payload else [payload])
    return results


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One row: medians, the parent's quartiles, wins, and the label.

    ``parent[i]`` and ``change[i]`` are one pair of runs.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    gain = sign * (change_median - parent_median)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > q3 - q1:
        label = "improved"
    elif -gain > bound * abs(parent_median):
        label = "regressed"
    elif q3 - q1 > bound * abs(parent_median) and not separated:
        label = "unresolved"
    else:
        label = "no-worse"
    return {"parent": parent_median, "q1": q1, "q3": q3, "change": change_median,
            "wins": wins, "pairs": pairs, "label": label}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="results of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="results of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    settings = {(r["seconds"], r["toy"]) for r in parent + change}
    if len(settings) > 1:
        print(f"results were taken with different (--seconds, --toy): {sorted(settings)}",
              file=sys.stderr)
        return 2
    workloads = [
        w for w in parent[0]["workloads"] if all(w in r["workloads"] for r in parent + change)
    ]

    bad = False
    print(f"{'workload':<14} {'metric':<22} {'parent median [IQR]':>36} "
          f"{'change':>12} {'wins':>7}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare(
                [r["workloads"][workload]["metrics"][name]["median"] for r in parent],
                [r["workloads"][workload]["metrics"][name]["median"] for r in change],
                metric["better"],
                metric["bound"],
            )
            bad |= row["label"] == "regressed"
            print(f"{workload:<14} {name:<22} {row['parent']:>12.5g} "
                  f"[{row['q1']:.5g}, {row['q3']:.5g}] {row['change']:>12.5g} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {row['label']}")
        failed_parent = min(r["workloads"][workload]["failed"] for r in parent)
        failed_change = max(r["workloads"][workload]["failed"] for r in change)
        if failed_change > failed_parent:
            bad = True
            print(f"{workload:<14} correctness: a change run failed {failed_change} "
                  f"records, a parent run {failed_parent}; no gain counts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
