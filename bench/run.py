"""Benchmark entry point: one workload, one process, one JSON line.

    python3 bench/run.py --workload ungm|bot|rules --seed N --seconds S --trace 0|1

Run from the root of a checkout; gpquad is imported from its ``src/``.
The process pins BLAS and OpenMP to one thread before numpy loads, times
interpreter start-up plus ``import gpquad, gpquad.cli`` in fresh
processes, warms the workload up, then repeats whole rounds of identical
inputs until S seconds have passed, and checks the outputs against
``reference.py``.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``study_s``, the
median round; ``setup_s``; ``peak_rss_mb``).  With ``--trace 1`` untraced
and traced rounds alternate and the metrics are the per-layer ones of
``spans.py``, the import times from ``python -X importtime`` and the
tracing overhead.  A summary of the traced spans goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_IMPORT = "import gpquad, gpquad.cli"
SETUP_STARTS = 5
IMPORT_MODULES = {"setup.import_gpquad_s": ("gpquad", "gpquad.cli"),
                  "setup.import_scipy_linalg_s": ("scipy.linalg",),
                  "setup.import_scipy_optimize_s": ("scipy.optimize",)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds() -> float:
    """Median wall time of fresh interpreters running ``SETUP_IMPORT``,
    after one discarded start."""
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=_child_env(),
                       cwd=ROOT, check=True, capture_output=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def import_seconds() -> dict:
    """Median cumulative import time of each module group, from
    ``python -X importtime``."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(SETUP_STARTS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_IMPORT],
                              env=_child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        for name, modules in IMPORT_MODULES.items():
            samples[name].append(sum(cumulative.get(m, 0.0) for m in modules))
    return {name: statistics.median(values) for name, values in samples.items()}


def timed_round(workload, outputs):
    gc.collect()
    start = time.perf_counter()
    outputs.append(workload.round())
    return time.perf_counter() - start


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed.  With a tracer, every
    untraced round is followed by a traced one, whose span summary is kept."""
    outputs, plain, traced, summaries = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.append(timed_round(workload, outputs))
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                traced.append(timed_round(workload, outputs))
            summaries.append(tracer.summary())
    return outputs, plain, traced, summaries


def traced_metrics(per_round, summaries, plain, traced, counts):
    """Medians of the per-round layer metrics and the tracing overhead;
    problems if a count differs between traced rounds."""
    problems = [f"{name} differs between traced rounds" for name in counts
                if len({round_[name] for round_ in per_round}) != 1]
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.study_s"] = plain_s
    metrics["trace.traced_study_s"] = traced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    metrics["trace.top_level_share"] = statistics.median(
        s["top_level_s"] / t for s, t in zip(summaries, traced))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gpquad" / "__init__.py").is_file():
        print(f"no gpquad sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    setup = import_seconds() if args.trace else {"setup_s": setup_seconds()}
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.trace:
        outputs, plain, traced, summaries = run_rounds(workload, args.seconds, spans.Tracer())
        metrics, problems = traced_metrics(
            [spans.layer_metrics(s) for s in summaries], summaries, plain, traced,
            [name for name, unit in units.items() if unit == "count"])
        metrics.update(setup)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps({"rounds": summaries, "metrics": metrics}, indent=1, sort_keys=True))
    else:
        outputs, times, _, _ = run_rounds(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"study_s": statistics.median(times), "peak_rss_mb": peak_mb, **setup}
        problems = []
    problems += workload.check(outputs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": workload.ops_per_round * len(outputs),
        "failed": sum(workload.failed(out) for out in outputs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
