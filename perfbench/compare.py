"""Compare two result sets of the benchmark, workload by workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines `run.py --record FILE` appends.  Run the parent and
the change in alternating order, with the same seeds in the same order, so
that the i-th run of one side pairs with the i-th run of the other.

For every end-to-end metric of every workload it prints each side's median
and quartiles, the change in the median, and how many pairs the change won.
The verdict follows the pairs rule:
  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile distance;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  neither, while the parent's own spread is wider than the bound;
  same        otherwise.
It also prints failed / attempted operations per side; a gain does not count
when the change fails more operations than the parent.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    """{workload: [result, ...]} of the untraced runs, in file order."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record["result"])
    return runs


def verdict(parent, change, lower_is_better, bound):
    """(verdict, pairs won by the change, pairs compared)."""
    sign = -1 if lower_is_better else 1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_med = statistics.median(change)
    worse_share = sign * (p_med - c_med) / abs(p_med)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins, len(pairs)
    if worse_share > bound:
        return "regression", wins, len(pairs)
    if stats.iqr_share(parent) > bound:
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def _fmt(values):
    q1, med, q3 = stats.quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_runs, change_runs, metrics):
    lines = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        lines.append(f"{workload}: {len(parent)} parent runs, {len(change)} change runs")
        for side, runs in (("parent", parent), ("change", change)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            lines.append(f"  {side}: failed {failed} / attempted {attempted} "
                         f"({failed / attempted:.3%}), all correct: {correct}")
        for spec in metrics:
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in parent]
            c = [r["metrics"][name]["value"] for r in change]
            lower = spec["better"] == "lower"
            word, wins, n = verdict(p, c, lower, spec["bound"])
            delta = (statistics.median(c) - statistics.median(p)) / abs(statistics.median(p))
            lines.append(
                f"  {name:16s} {spec['unit']:4s} parent {_fmt(p)}  change {_fmt(c)}"
                f"  {delta:+7.2%}  won {wins}/{n}  {word}"
            )
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    lines = compare(load(argv[0]), load(argv[1]), metrics)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
