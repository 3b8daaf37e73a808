"""Compare two sets of benchmark results, metric by metric.

    python bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is the ``--out`` of an untraced ``bench/run.py``. Set A is the
parent (or first) side, set B the change (or second). The i-th file of
each side form a pair; run them alternately, A first in one pair and B
first in the next. For every workload and end-to-end metric of
``BENCHMARK.json`` this prints each side's median, quartiles and run
count, how many pairs B won, and a verdict:

``better``
    B won at least nine tenths of all pairs (ties count for neither)
    and the medians differ, in B's favour, by more than the distance
    between A's quartiles.
``worse``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    A's own spread (quartile distance over median) is wider than the
    bound, and not every run of B reads better than every run of A.
``unchanged``
    Everything else.

Runs of the same workload at the same seed must produce the same
digests, on either side. The exit code is 1 on any ``worse`` verdict,
any failed unit in B, or any digest disagreement; 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from run import load_spec


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            lower_is_better: bool) -> Tuple[str, int, int]:
    """``(verdict, pairs B won, pairs)`` for one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (x - y) > 0)
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    gain = sign * (med_a - med_b)
    if pairs and won >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better", won, len(pairs)
    if -gain > bound * med_a:
        return "worse", won, len(pairs)
    every_b_better = (max(b) < min(a)) if lower_is_better else (
        min(b) > max(a))
    if (q3 - q1) > bound * med_a and not every_b_better:
        return "unresolved", won, len(pairs)
    return "unchanged", won, len(pairs)


def load(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        if run.get("trace"):
            raise SystemExit(f"compare: {path} is a traced run; compare "
                             f"untraced runs only")
        runs.append(run)
    return runs


def digest_disagreements(runs: Sequence[dict]) -> List[str]:
    """Workload/seed pairs whose runs produced different digests."""
    seen: Dict[Tuple[str, int], dict] = {}
    bad = []
    for run in runs:
        for workload, result in run["workloads"].items():
            key = (workload, run["seed"])
            first = seen.setdefault(key, result["digests"])
            if first != result["digests"] and key not in bad:
                bad.append(key)
    return [f"{w} at seed {s}" for w, s in bad]


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    split = list(argv).index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    if not side_a or not side_b:
        sys.stderr.write("compare: both sides need at least one file\n")
        return 2
    spec = load_spec()
    status = 0
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3] n':>30} "
          f"{'B median [q1, q3] n':>30} {'B won':>7}  verdict")
    workloads = [w for w in side_a[0]["workloads"]
                 if all(w in r["workloads"] for r in side_a + side_b)]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = (
                [r["workloads"][workload]["metrics"][name]["value"]
                 for r in side
                 if name in r["workloads"][workload]["metrics"]]
                for side in (side_a, side_b)
            )
            if not a or not b:  # every run of a side failed
                print(f"{workload:<16} {name:<12} no measurements")
                status = 1
                continue
            result, won, pairs = verdict(a, b, metric["bound"],
                                         metric["better"] == "lower")
            if result == "worse":
                status = 1
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            print(f"{workload:<16} {name:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{won:>3}/{pairs:<3}  {result}")
        failed = sum(r["workloads"][workload]["failed"] for r in side_b)
        if failed:
            print(f"{workload}: {failed} unit(s) failed in B")
            status = 1
    for problem in digest_disagreements(side_a + side_b):
        print(f"digests disagree: {problem}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
