"""One workload in one fresh process: set up, then run passes and check them.

run.py starts this file; it is not meant to be run by hand. The first line
it prints is {"ready": <time.time()>}, written right after set-up (the
imports and the workload's inputs) and before the first timed call, so the
parent can time set-up from the moment it started the process. With
--setup-only the process stops there. Otherwise it runs passes until the
next one would overrun --seconds (at least one), or, with --trace, one
untraced pass and then one traced pass. Its last line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, SRC)
import metriclab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "metriclab": metriclab.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


def one_pass(workload, inputs, pinned, scratch, tracer=None):
    """Run and check one pass: (wall seconds, per-op checks, bytes of artifacts)."""
    out_dir = tempfile.mkdtemp(dir=scratch)
    try:
        ops = workloads.build_ops(workload, inputs, out_dir)
        if tracer is not None:
            tracing.install(tracer)
        try:
            t0 = time.perf_counter()
            done = workloads.run_ops(ops, tracer)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        nbytes = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        checks = workloads.check(done, pinned)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, checks, nbytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="run one traced pass and write its spans here")
    ap.add_argument("--scratch", required=True, help="directory for pass artifacts")
    args = ap.parse_args(argv)

    if not os.path.abspath(metriclab.__file__).startswith(SRC + os.sep):
        print(f"metriclab imported from {metriclab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    inputs = workloads.make_inputs(args.workload, args.seed)
    print(json.dumps({"ready": time.time()}), flush=True)
    if args.setup_only:
        return 0

    pinned, seed_pinned = workloads.pinned_for(expected, args.workload, args.seed)
    walls, checks = [], []
    result = {"seed_pinned": seed_pinned, "env": environment()}
    if args.trace_out:
        untraced, checks, _ = one_pass(args.workload, inputs, pinned, args.scratch)
        tracer = tracing.Tracer()
        wall, more, nbytes = one_pass(args.workload, inputs, pinned,
                                      args.scratch, tracer)
        walls, checks = [untraced, wall], checks + more
        result["per_layer"] = tracing.per_layer_metrics(tracer, wall, untraced, nbytes)
        result["table"] = tracing.self_time_table(tracer, wall)
        result["not_wrapped"] = sorted(set(tracer.missing))
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.spans, "attrs": tracer.attrs,
                       "counters": dict(tracer.counters),
                       "not_wrapped": result["not_wrapped"],
                       "metrics": result["per_layer"]}, fh)
    else:
        start = time.perf_counter()
        while True:
            wall, more, _ = one_pass(args.workload, inputs, pinned, args.scratch)
            walls.append(wall)
            checks += more
            if time.perf_counter() - start + wall > args.seconds:
                break
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update({
        "walls": walls,
        "attempted": len(checks),
        "failed": sum(1 for _, problems in checks if problems),
        "failures": [[name, problems] for name, problems in checks if problems],
        "peak_rss_mb": rss_kb / 1024.0,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
