"""Benchmark of llgtw: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify_fast --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the run repeats untraced passes of the workload for
--seconds and reports the end-to-end metrics (median over passes).  The pass
time that BENCHMARK.json gates is CPU time scaled by a reference kernel
sampled during the pass (refclock.py): on a shared virtual machine the wall
time of a pass also holds the time the host gave the CPU to other guests,
and the CPU time swings with the host's load on the shared cores.  With
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  Every pass checks its results
against the workload's oracles.  The last line of standard output is the
result object; the line before it holds the run's metadata, and both go
with the spans of traced passes to perfbench/out/.
"""

import time

C_START = time.process_time()  # setup_s counts from here: imports and inputs

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import llgtw from this checkout's src/, or exit 1 when it is not there."""
    if not (SRC / "llgtw" / "__init__.py").is_file():
        sys.exit(f"perfbench: no llgtw sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import llgtw

    if Path(llgtw.__file__).resolve().parent != SRC / "llgtw":
        sys.exit(f"perfbench: imported llgtw from {llgtw.__file__}, not from {SRC}")


def metadata(args) -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, or None outside a git clone."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def timed_pass(workloads, clock, args, inputs) -> tuple[dict, object]:
    """One untraced pass; its wall and CPU time less the reference samples
    taken during it, and the CPU time at the kernel's nominal speed."""
    w0, c0 = time.perf_counter(), time.process_time()
    with clock.sampling():
        outcome = workloads.run_pass(args.workload, inputs)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    cpu -= sum(clock.samples)
    times = {"wall_s": wall - sum(clock.sample_wall), "cpu_s": cpu,
             "slowdown": clock.slowdown(), "cpu_norm_s": cpu / clock.slowdown(),
             "ref_samples": len(clock.samples)}
    return times, outcome


def traced_pass(tracing, workloads, args, inputs):
    tracer = tracing.Tracer()
    with tracer.installed():
        outcome = tracer.run(workloads.run_pass, args.workload, inputs)
    return tracer, outcome


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    import_library()
    import refclock
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    clock = refclock.RefClock()
    setup = time.process_time() - C_START

    passes, tracers = [], []
    t0 = time.perf_counter()
    while True:
        if args.trace and len(passes) % 2:
            tracer, outcome = traced_pass(tracing, workloads, args, inputs)
            tracers.append(tracer)
            passes.append({"traced": True, "attempted": outcome.attempted,
                           "failures": outcome.failures})
        else:
            times, outcome = timed_pass(workloads, clock, args, inputs)
            passes.append({"traced": False, **times,
                           "attempted": outcome.attempted, "failures": outcome.failures})
        if time.perf_counter() - t0 >= args.seconds and len(tracers) >= args.trace:
            break

    untraced = [p for p in passes if not p["traced"]]

    def median(key):
        return statistics.median(p[key] for p in untraced)

    untraced_wall = median("wall_s")
    if args.trace:
        per_pass = [tracing.layer_metrics(t.spans, t.counts) for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
    else:
        values = {
            "cpu_norm_s": median("cpu_norm_s"),
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"perfbench: oracle failed: {failure}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = metadata(args)
    meta.update(ops_failed_frac=failed / attempted, passes=len(passes),
                wall_s=untraced_wall, cpu_s=median("cpu_s"), slowdown=median("slowdown"))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "result": result, "passes": passes,
              "spans": [t.spans for t in tracers]}
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
