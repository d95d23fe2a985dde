"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run it from the root of a checkout; pathcoalg is imported from ./src.

--trace 0 measures end to end.  Each pass is a fresh worker process that sets
up, then runs the seed's query list once, single client, closed loop.  Passes
repeat until --seconds have passed (at least MIN_PASSES), one at a time, and
every metric is the median over passes.  setup_s is the median of at least SETUP_SAMPLES set-ups; workers that
only set up make up the count.

--trace 1 runs one untraced and one traced pass of the same queries and
reports the per-layer metrics of the traced pass, plus the share by which
tracing slowed the timed phase.  Layer times are divided by the pass's median
host slowness like the end-to-end times.  The spans of the latest traced run
of each workload go to .perfbench/ in the checkout.

--record FILE appends {"workload", "seed", "trace", "result"} to FILE, the
input format of perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import queries
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 2
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170  # a run must end within 180 s
P90_TAIL_MIN = 10  # samples a pass needs beyond its p90

END_TO_END_UNITS = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload, seed, deadline, *flags):
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("run deadline passed")
    # fixed hash seed: set iteration order, and so the traced counts, repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *flags]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker passed the run deadline: {' '.join(cmd)}") from exc
    if done.returncode != 0:
        raise WorkerFailed(f"worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _failures(passes):
    wrong = [w for p in passes for w in p["wrong"]]
    return {
        "correct": all(p["wrong_count"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }, wrong


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline):
    start = time.monotonic()
    passes = []
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(spawn(workload, seed, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, deadline, "--setup-only")["setup_s"])
    per_pass = {
        "queries_per_s": [p["queries"] / p["wall_s"] for p in passes],
        "latency_p50_ms": [stats.percentile(p["latencies_s"], 50) * 1e3 for p in passes],
        "latency_p90_ms": [stats.percentile(p["latencies_s"], 90) * 1e3 for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": setups,
    }
    metrics = {
        name: _metric(statistics.median(per_pass[name]), unit)
        for name, unit in END_TO_END_UNITS.items()
    }
    count = passes[0]["queries"]
    if stats.beyond(count, 90) < P90_TAIL_MIN:
        raise WorkerFailed(f"{count} queries leave fewer than {P90_TAIL_MIN} beyond p90")
    notes = [
        f"{workload} seed {seed}: {len(passes)} passes of {count} queries "
        f"({stats.beyond(count, 90)} beyond p90 per pass), {len(setups)} set-ups",
    ]
    per_pass["raw queries_per_s"] = [p["queries"] / p["wall_raw_s"] for p in passes]
    per_pass["host slowness"] = [p["slowness"] for p in passes]
    notes += [f"  {name}: " + " ".join(f"{v:.4g}" for v in values)
              for name, values in per_pass.items()]
    return passes, metrics, notes


def traced(workload, seed, deadline):
    base = spawn(workload, seed, deadline)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}.jsonl")  # latest run only
    traced_pass = spawn(workload, seed, deadline, "--trace", "--spans", spans)
    layers = dict(traced_pass["layers"])
    layers["trace.overhead_share"] = (
        (traced_pass["wall_s"] - base["wall_s"]) / base["wall_s"])
    metrics = {name: _metric(layers[name], unit)
               for name, unit in traced_pass["layer_units"].items()}
    notes = [f"{workload} seed {seed}: traced pass kept {traced_pass['spans']} "
             f"spans in {spans}"]
    return [base, traced_pass], metrics, notes


def run(workload, seed, seconds, trace):
    """The result object of one run, plus lines for a human reader."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        passes, metrics, notes = traced(workload, seed, deadline)
    else:
        passes, metrics, notes = end_to_end(workload, seed, seconds, deadline)
    result, wrong = _failures(passes)
    result["metrics"] = metrics
    defects = {}
    for p in passes:
        for name, count in p["defects"].items():
            defects[name] = defects.get(name, 0) + count
    notes.append(f"  failed {result['failed']} of {result['attempted']} operations"
                 f" ({result['failed'] / result['attempted']:.2%})")
    notes += [f"    known defect x{count}: {name}" for name, count in defects.items()]
    notes += [f"    WRONG: {w}" for w in wrong]
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="pathcoalg benchmark")
    parser.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pathcoalg", "__init__.py")):
        print(f"no pathcoalg sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line, file=sys.stderr)
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
