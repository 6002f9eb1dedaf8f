"""Interleaved pairs of benchmark runs on two revisions, summarised per metric.

    python tools/bench_pairs.py REV_A REV_B --workload field-sweep --seed 0 \
        --pairs 10 --seconds 30 --out BENCH.json

REV_A is the parent and REV_B the change: any tree-ish that `git archive`
accepts (a commit, a branch, or the tree `git write-tree` makes of the
index).  Each is exported with `git archive` into its own checkout under one
new scratch directory, at paths of equal length, and every run of
perfbench/run.py (the checkout's own) has PYTHONDONTWRITEBYTECODE=1, so that
neither checkout ever holds a __pycache__.  Odd pairs run the parent first,
even pairs the change first.  These are the conditions under which
`peak_rss_mb` compares two trees and not their allocation histories: it moved
by about 20 % with the checkout's path and with compiled bytecode in
src/metriclab, although no code differed (CHANGES.md has the runs).

The tool prints each end-to-end metric's median and quartiles on both sides
and the pairs the change won and lost (ties count for neither).  It writes the
pairs and the summary to --out as JSON in the layout of the BENCH_*.json
files; an existing --out for the same two revisions gains the workload and
seed as one more entry.  Standard library only.

--claim METRIC tests a claimed gain on one end-to-end metric, prints one
verdict line and adds a "claim" entry to the workload's record.  The claim
is met when the change reads better in at least nine of every ten pairs
and its median is better than the parent's by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs, better):
    """Per metric of `better` (name -> "lower" or "higher"): both sides' medians
    and quartiles, the parent's interquartile range, and the pairs in which the
    change read better or worse.  Each pair is {"parent": run, "change": run},
    a run being perfbench's result line ({"metrics": {name: {"value": v}}})."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        gains = [sign * (a - b) for a, b in zip(values["parent"], values["change"])]
        parent_q, change_q = _quartiles(values["parent"]), _quartiles(values["change"])
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        out[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": parent_q,
            "change_quartiles": change_q,
            "parent_iqr": parent_q[1] - parent_q[0],
            "change_better_in": sum(g > 0 for g in gains),
            "change_worse_in": sum(g < 0 for g in gains),
            "relative_change_of_median": (change_median - parent_median) / parent_median,
            "pairs": len(pairs),
        }
    return out


def claim(metric, s, direction):
    """The verdict on a claimed gain in `metric`, from its summary s (see
    summarize) and its direction ("lower" or "higher" is better)."""
    sign = 1 if direction == "lower" else -1
    gain = sign * (s["parent_median"] - s["change_median"])
    wins = math.ceil(0.9 * s["pairs"])
    return {"metric": metric, "met": gain > s["parent_iqr"] and s["change_better_in"] >= wins,
            "median_gain": gain, "parent_iqr": s["parent_iqr"],
            "change_better_in": s["change_better_in"], "wins_needed": wins, "pairs": s["pairs"]}


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def _export(rev, dest):
    """git archive of rev into the new directory dest."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", rev), check=True)


def _run(checkout, args):
    """One perfbench run from checkout: its last JSON line."""
    if any(checkout.rglob("__pycache__")):
        raise RuntimeError(f"{checkout} holds a __pycache__")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-1])


def _host():
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("rev_a", help="the parent revision")
    ap.add_argument("rev_b", help="the change's revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True, help="JSON file to write or extend")
    ap.add_argument("--scratch", default=None,
                    help="directory for the two checkouts (default: the system temp)")
    ap.add_argument("--claim", metavar="METRIC", default=None,
                    help="an end-to-end metric whose claimed gain to test")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    with open(ROOT / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        ap.error(f"--claim must name an end-to-end metric: {', '.join(better)}")
    revs = {side: _git("rev-parse", "--short", rev).decode().strip()
            for side, rev in zip(SIDES, (args.rev_a, args.rev_b))}
    out = Path(args.out)
    record = {**revs, "host": _host(),
              "method": "perfbench/run.py --trace 0 in git-archive checkouts at paths of "
                        "equal length, PYTHONDONTWRITEBYTECODE=1, no __pycache__; odd pairs "
                        "run the parent first; quartiles are statistics.quantiles(n=4, "
                        "method='inclusive')",
              "workloads": {}}
    if out.exists():
        record = json.loads(out.read_text())
        if {side: record.get(side) for side in SIDES} != revs:
            print(f"{out} compares other revisions", file=sys.stderr)
            return 2

    base = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    try:
        checkouts = {"parent": base / "a", "change": base / "b"}
        for side, rev in zip(SIDES, (args.rev_a, args.rev_b)):
            _export(rev, checkouts[side])
        pairs = []
        for k in range(1, args.pairs + 1):
            order = SIDES if k % 2 else SIDES[::-1]
            pair = {"pair": k, "first": order[0]}
            for side in order:
                pair[side] = _run(checkouts[side], args)
            pairs.append(pair)
            print(f"pair {k}: " + ", ".join(
                f"{side} " + " ".join(f"{n}={m['value']:.4g}"
                                      for n, m in pair[side]["metrics"].items())
                for side in order), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    correct = all(p[side]["correct"] for p in pairs for side in SIDES)
    summary = summarize(pairs, better) if correct else {}
    for name, s in summary.items():
        print(f"{name:12s} parent {s['parent_median']:.4g} {s['parent_quartiles']}  "
              f"change {s['change_median']:.4g} {s['change_quartiles']}  "
              f"change better in {s['change_better_in']}, worse in "
              f"{s['change_worse_in']} of {s['pairs']}")
    if not correct:
        print("some run was not correct: no summary", file=sys.stderr)

    entry = {"seconds": args.seconds, "pairs": pairs, "summary": summary, "all_correct": correct}
    if args.claim is not None:
        if correct:
            entry["claim"] = verdict = claim(args.claim, summary[args.claim], better[args.claim])
            print(f"claim {args.claim}: {'met' if verdict['met'] else 'not met'} "
                  f"(median gain {verdict['median_gain']:.4g} against parent IQR "
                  f"{verdict['parent_iqr']:.4g}, better in {verdict['change_better_in']} of "
                  f"{verdict['pairs']} pairs, {verdict['wins_needed']} needed)")
        else:
            entry["claim"] = {"metric": args.claim, "met": False}
            print(f"claim {args.claim}: not met (some run was not correct)")
    record["workloads"][f"{args.workload}-s{args.seed}"] = entry
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
