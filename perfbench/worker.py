"""One pass of one workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
       [--limit K] [--spans FILE]

Set-up time runs from the start point below, taken before pathcoalg is
imported, to the first timed query: imports, query generation, fixtures and a
final gc.collect().  The timed phase then runs the seed's query list once.
Times are reported raw and at reference-host speed (see hostspeed).

A traced pass runs without the calibration timer, whose handler would land
inside the spans; its times are divided by the slowness measured just before
and after the timed phase.
"""

import time

import hostspeed

hostspeed.kernel()  # the first run pays for cold caches; keep it out of the calibration
METER = hostspeed.Meter()  # set-up start point: nothing of pathcoalg loaded yet

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import queries  # noqa: E402
import workloads  # noqa: E402  (imports pathcoalg)


def _metered(run, todo, fixtures, tally):
    raw, normalized = [], []
    for query in todo:
        raw0, norm0 = METER.read()
        run(query, fixtures, tally)
        raw1, norm1 = METER.read()
        raw.append(raw1 - raw0)
        normalized.append(norm1 - norm0)
    METER.stop()
    return raw, normalized, statistics.median(METER.samples)


def _bracketed(run, todo, fixtures, tally):
    before = hostspeed.slowness(5)
    raw = []
    for query in todo:
        start = time.perf_counter()
        run(query, fixtures, tally)
        raw.append(time.perf_counter() - start)
    slow = (before + hostspeed.slowness(5)) / 2
    return raw, [r / slow for r in raw], slow


def run_pass(workload, seed, trace=False, setup_only=False, limit=None, spans=None):
    todo = queries.generate(workload, seed)[:limit]
    workloads.warm_scalar_caches()
    tracer = None
    if trace:
        METER.stop()
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    fixtures = workloads.Fixtures(workload)
    gc.collect()
    result = {"setup_s": METER.read()[1]}
    if setup_only:
        return result
    tally = workloads.Tally()
    timed = _bracketed if trace else _metered
    raw, normalized, slow = timed(workloads.RUNNERS[workload], todo, fixtures, tally)
    result.update({
        "queries": len(todo),
        "latencies_s": normalized,
        "wall_s": sum(normalized),
        "wall_raw_s": sum(raw),
        "slowness": slow,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "defects": dict(tally.defects),
        "wrong": tally.wrong[:20],
        "wrong_count": len(tally.wrong),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        tracer.uninstall()
        units = tracing.metric_units()
        result["layers"] = {
            name: value / slow if units[name] == "s" else value
            for name, value in tracer.metrics().items()
        }
        result["layer_units"] = units
        result["spans"] = len(tracer.spans)
        if spans:
            tracer.write_spans(spans)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=queries.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--limit", type=int, help="run only the first K queries")
    parser.add_argument("--spans", help="write the traced spans to this file")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.trace, args.setup_only,
                      args.limit, args.spans)
    METER.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
