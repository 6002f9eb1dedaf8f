"""metriclab benchmark: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload loop-systole --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports metriclab from the
checkout's src/ and fails (exit 2, no result) when that is missing.

--trace 0 measures the end-to-end metrics. Set-up is timed in
SETUP_SAMPLES + 1 fresh processes (from process start to the first timed
call: interpreter, imports, inputs from the seed) and reported as the
median. The middle one of those processes, the measuring process, then runs
whole passes of the workload for --seconds; the median pass is wall_s, and
its peak resident memory is peak_rss_mb.

--trace 1 runs one untraced and one traced pass in a fresh process, prints
a per-layer self-time table and reports the per-layer metrics; its spans
and counters go to perfbench/results/<workload>-s<seed>-spans.json.

Every operation's output is checked (see workloads.py). A run with a failed
operation prints "correct": false with no metrics and exits 1. The last
line of standard output is always the JSON result when one is printed.
Workloads run one at a time: a lock in perfbench/results/ serialises runs.
"""

from __future__ import annotations

import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 8
# A fixed string hash seed keeps dict and set layouts the same in every worker.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
ADDR_NO_RANDOMIZE = 0x0040000   # personality(2) flag, from <linux/personality.h>
_personality = ctypes.CDLL(None, use_errno=True).personality
_personality.argtypes, _personality.restype = [ctypes.c_ulong], ctypes.c_int
TIME_LIMIT = 170.0    # seconds for the whole run, workers included


class RunError(RuntimeError):
    pass


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "metriclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fixed_layout():
    """Turn off address space randomisation for the worker about to be exec'd.

    With it on, the same loop-systole pass peaked at about 212 MB in some
    processes and 248 MB in others. The flag acts on the worker alone.
    """
    if _personality(_personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


def run_worker(args, deadline):
    """Run worker.py to completion: (set-up seconds, last JSON line or None)."""
    cmd = [sys.executable, WORKER] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time limit reached before the workload finished")
    start = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, preexec_fn=fixed_layout,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker timed out: {' '.join(args)}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    setup = json.loads(lines[0])["ready"] - start
    last = json.loads(lines[-1]) if len(lines) > 1 else None
    return setup, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not os.path.isfile(os.path.join(ROOT, "src", "metriclab", "__init__.py")):
        print(f"no metriclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        scratch = tempfile.mkdtemp(dir=RESULTS)
        try:
            return measure(args, deadline, scratch)
        except RunError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def measure(args, deadline, scratch) -> int:
    base = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", scratch]
    stem = os.path.join(RESULTS, f"{args.workload}-s{args.seed}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "worker_env": {"PYTHONHASHSEED": WORKER_ENV["PYTHONHASHSEED"],
                       "address_space_randomisation": "off"},
        "notes": "the benchmark does no CPU pinning, frequency or cache control",
    }
    if args.trace:
        _, out = run_worker(base + ["--trace-out", stem + "-spans.json"], deadline)
        print(out["table"])
        if out["not_wrapped"]:
            print("not wrapped, so their metrics are left out: "
                  + ", ".join(out["not_wrapped"]), file=sys.stderr)
        metrics = {name: {"value": v, "unit": unit_of(name)}
                   for name, v in out["per_layer"].items()}
    else:
        def setup_only():
            return run_worker(base + ["--setup-only"], deadline)[0]

        # samples on both sides of the measuring process span the whole run
        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        setup, out = run_worker(base + ["--seconds", str(args.seconds)], deadline)
        setups += [setup] + [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        record["setup_samples"] = setups
        metrics = {
            "wall_s": {"value": statistics.median(out["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    correct = out["failed"] == 0
    record.update(out)
    record["fail_ratio"] = out["failed"] / out["attempted"]
    record["pass_walls"] = record.pop("walls")
    record.pop("table", None)
    if not correct:
        metrics = {}
        for name, problems in out["failures"]:
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    record["metrics"] = metrics
    with open(stem + ("-traced.json" if args.trace else ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {out['attempted']} operations, "
          f"{out['failed']} failed, {len(record['pass_walls'])} passes, "
          f"seed pinned: {out['seed_pinned']}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_exponent")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
