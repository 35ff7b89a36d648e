"""Steadiness check: sets of runs of the same code, compared against the bounds.

    python3 bench/compare.py [--trace-check]

It makes two sets of ten passes.  A pass runs ``bench/run.py`` once per
workload of BENCHMARK.json, for its ``run_seconds``, with a new seed
counting up from 0, in fresh processes one after another.  For every
workload and end-to-end metric it prints each set's median and quartile
spread ((q3 - q1) / median) and how far the second set's median moved
from the first set's, in the metric's worse direction.  A spread must
stay within the metric's bound from BENCHMARK.json, the second median
within its bound of the first, and every set must fail the same share of
operations.  ``--trace-check`` also runs each workload traced twice with
seed 0 and requires identical counts.  Results go to
``bench/out/compare.json``; the exit code is 1 if any condition fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2
RUNS = 10


def run(workload, seed, seconds, trace=0):
    """One run's result, plus the run's whole wall time as ``wall_s``."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = 0
    for set_index in range(SETS):
        for _ in range(RUNS):
            for workload in workloads:
                result = run(workload, seed, seconds)
                results[workload][set_index].append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"set {set_index} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values} "
                      f"run={result['wall_s']:.1f}s", flush=True)
            seed += 1

    ok = True
    print(f"\n{'workload':8} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(i):>10} {'spread' + str(i):>8}" for i in range(SETS))
          + f" {'worst drift':>11}  verdict")
    for workload, sets in results.items():
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            print(f"{workload}: failed shares {sorted(shares)}, or a run not correct")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = max((sign * (m - medians[0]) / medians[0] for m in medians[1:]), default=0.0)
            good = drift <= bound and max(spreads) <= bound
            ok &= good
            print(f"{workload:8} {name:12} {bound:6.3f} "
                  + " ".join(f"{m:10.4g} {s:8.2%}" for m, s in zip(medians, spreads))
                  + f" {drift:11.2%}  {'ok' if good else 'OUT OF BOUND'}")

    traces = {}
    if args.trace_check:
        for workload in workloads:
            pair = [run(workload, 0, seconds, trace=1) for _ in range(2)]
            traces[workload] = pair
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                      for r in pair]
            same = counts[0] == counts[1] and all(r["correct"] for r in pair)
            ok &= same
            print(f"{workload}: traced counts {'identical' if same else 'DIFFER'} across two runs"
                  f"; overhead {pair[0]['metrics']['trace.overhead_pct']['value']:.2f} % and "
                  f"{pair[1]['metrics']['trace.overhead_pct']['value']:.2f} %")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "compare.json").write_text(
        json.dumps({"runs": results, "traces": traces}, indent=1))
    print("all within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
