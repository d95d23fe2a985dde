"""Run every workload once and print all end-to-end metrics in one table.

    python3 perfbench/report.py --seed N --seconds S

Prints the 15 end-to-end metrics (5 per workload) by name and unit, and the
failed / attempted operations of each workload.  Exits 1 if any run reports
a wrong answer.
"""

from __future__ import annotations

import argparse
import sys

import queries
import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in queries.WORKLOADS:
        try:
            result, _ = run.run(workload, args.seed, args.seconds, trace=0)
        except run.WorkerFailed as exc:
            print(f"{workload}: benchmark failed: {exc}", file=sys.stderr)
            return 1
        all_correct &= result["correct"]
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload}: correct {result['correct']}, failed {failed} / "
              f"attempted {attempted} ({failed / attempted:.2%})")
        for name, metric in result["metrics"].items():
            print(f"  {workload}/{name:16s} {metric['value']:12.4f} {metric['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
