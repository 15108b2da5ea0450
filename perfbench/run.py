"""Run one tvdbn benchmark workload and print its metrics.

From the root of a tvdbn checkout:

    python3 perfbench/run.py --workload structure-train --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are its per-layer metrics, from one untraced and one traced pass. The
line before it records provenance: versions, BLAS threads, CPU, seed, the
digest of the deterministic outputs and the quality scores. The exit code is
0 when every output check passed, 1 when one failed, 2 when the working
directory holds no ``src/tvdbn`` and 3 when the workload would not fit in
memory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("structure-train", "forecast-train", "cli-pipeline")
SETUP_REPEATS = 5
# One OpenBLAS thread was 10-20% faster on the forecaster than two, with
# less spread, and equal on the structure learner.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench"  # work files and span files, under the checkout root


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, digests: list[str], quality: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "digest": digests[0] if len(set(digests)) == 1 else digests,
        "quality": quality,
    }


def run_passes(workload, seconds: float, tally, warmup: bool) -> tuple[list, list]:
    """Warm-up and measured passes until `seconds` are used up.

    Another pass starts while half of one still fits; at least one pass is
    measured. In one process the first pass is 7-10% slower (first-touch page
    faults of the tape), so in-process workloads check it but do not time it.
    """
    checked, passes, durations = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        done = workload.unit(tally)
        durations.append(time.perf_counter() - start)
        (checked if warmup and not checked else passes).append(done)
        if passes and time.perf_counter() + statistics.median(durations) / 2 > deadline:
            return checked, passes


def import_seconds(src: str) -> float:
    """Median wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tvdbn"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_pass(workload, tally, prefix: str):
    """Set up and run one pass under the tracer; returns the pass and the layer summary."""
    import tracing

    if not workload.in_process:
        workload.trace_summaries.clear()
        workload.setup(trace_to=prefix + "-synth")
        done = workload.unit(tally, trace_to=prefix)
        summaries = []
        for path in workload.trace_summaries:
            with open(path) as fh:
                summaries.append(json.load(fh))
        return done, tracing.merge(summaries)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup()
        done = workload.unit(tally)
    finally:
        tracer.remove()
    tracer.write_spans(prefix + ".spans.jsonl")
    return done, tracer.summary()


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    measured = [p for p in passes if p.samples]
    if measured:
        values["pipeline_s"] = statistics.median(p.pipeline_s for p in measured)
        for key in ("train_windows_per_s", "infer_windows_per_s"):
            values[key] = statistics.median(v for p in measured for v in p.samples[key])
    return values


def per_layer(workload, untraced, traced, summary: dict) -> dict[str, float]:
    values = dict(summary)
    for p in untraced:
        values.update(p.layer)
    if not workload.in_process:
        generated = summary.get("grcsl.generated_windows", 0.0)
        values["cli.graph_windows_generated"] = generated
        if workload.counts:
            values["cli.graph_regen_ratio"] = generated / sum(workload.counts.values())
    base = statistics.median(p.pipeline_s for p in untraced)
    values["trace.overhead_pct"] = 100.0 * (traced.pipeline_s - base) / base
    return values


def main(argv: list[str] | None = None, shapes=None) -> int:
    """Run one workload; `shapes` replaces the full input sizes (the smoke test passes tiny ones)."""
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tvdbn", "__init__.py")):
        print("perfbench: no src/tvdbn here; run from the root of a tvdbn checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    sys.path.insert(0, src)
    import workloads

    shapes = shapes or workloads.FULL[args.workload]
    need, available = workloads.estimate_peak_mb(args.workload, shapes), mem_available_mb()
    if available is not None and need > available:
        print(
            f"perfbench: skipped {args.workload}: estimated peak {need:.0f} MB "
            f"exceeds MemAvailable {available:.0f} MB"
        )
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 3

    out_dir = os.path.join(root, OUT_DIR)
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](args.seed, shapes, work_dir)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(setup_times)
        if workload.in_process and not args.trace:
            setup_s += import_seconds(src)
        seconds = args.seconds / 2 if args.trace else args.seconds
        checked, passes = run_passes(workload, seconds, tally, warmup=workload.in_process)
        checked += passes
        if args.trace:
            prefix = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}")
            traced, summary = traced_pass(workload, tally, prefix)
            values = per_layer(workload, passes, traced, summary)
            checked.append(traced)
            wanted = spec["per_layer"]
            values = {m["name"]: values.get(m["name"], 0.0) for m in wanted}
        else:
            wanted = spec["end_to_end"]
            peak = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if workload.in_process
                else max(p.peak_rss_mb for p in passes)
            )
            values = end_to_end(passes, setup_s, peak)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    digests = [p.digest for p in checked]
    quality = {k: v for p in checked for k, v in p.layer.items() if k in ("grcsl.edge_f1", "dgcpm.best_val_mae")}
    print(json.dumps({"provenance": provenance(args, digests, quality)}))
    correct = tally.failed == 0 and len(set(digests)) == 1
    if len(set(digests)) > 1:
        print("perfbench: passes of one seed gave different outputs", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
