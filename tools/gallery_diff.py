"""Run the whole gallery with --figures on two revisions and list the files that differ.

    python tools/gallery_diff.py REV_A REV_B

REV_A and REV_B are any tree-ishes that `git archive` accepts.  Each is
exported into its own checkout under one new scratch directory (bench_pairs'
_export), and every gallery item that the checkout's `metriclab gallery`
lists runs through its own `metriclab run --gallery ITEM --figures`, with
PYTHONDONTWRITEBYTECODE=1 and the output directory given relative to a
per-side directory, so that no path of the checkout reaches an artifact.  An
item's printed rows are kept beside its files, as `stdout.txt`.  The tool
prints every file that differs or exists on one side only, and exits 1 if
any does, 0 if the trees are byte-identical.  Standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", HERE / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differing(tree_a, tree_b) -> list:
    """Sorted relative paths of the files that differ in bytes between the
    two directory trees, or exist in only one of them."""
    files = {}
    for side, root in enumerate((Path(tree_a), Path(tree_b))):
        for path in root.rglob("*"):
            if path.is_file():
                files.setdefault(path.relative_to(root).as_posix(), [None, None])[side] = path
    return sorted(name for name, (a, b) in files.items()
                  if a is None or b is None or not filecmp.cmp(a, b, shallow=False))


def _cli(checkout, args, cwd):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, "-m", "metriclab.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_gallery(checkout, out) -> list:
    """Every gallery item of checkout run with --figures into out/ITEM: the
    items whose run failed to execute (exit code above 1, a FAIL verdict
    being 1)."""
    listing = _cli(checkout, ["gallery"], checkout)
    if listing.returncode != 0:
        raise RuntimeError(f"metriclab gallery in {checkout} failed: {listing.stderr}")
    out.mkdir()
    broken = []
    for item in (line.split()[0] for line in listing.stdout.splitlines() if line.strip()):
        proc = _cli(checkout, ["run", "--gallery", item, "--out", item, "--figures"], out)
        (out / item).mkdir(exist_ok=True)
        (out / item / "stdout.txt").write_text(proc.stdout)
        if proc.returncode > 1:
            broken.append(f"{item}: exit {proc.returncode}: {proc.stderr.strip()}")
    return broken


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("rev_a", help="the first revision, as a rule the parent")
    ap.add_argument("rev_b", help="the second revision")
    ap.add_argument("--scratch", default=None,
                    help="directory for the checkouts and outputs (default: the system temp)")
    args = ap.parse_args(argv)
    export = _bench_pairs()._export
    base = Path(tempfile.mkdtemp(prefix="gallery-diff-", dir=args.scratch))
    try:
        broken = []
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            export(rev, base / side)
            broken += [f"{rev} {b}" for b in run_gallery(base / side, base / f"out-{side}")]
        items = sorted(p.name for p in (base / "out-b").iterdir())
        files = sum(1 for p in (base / "out-b").rglob("*") if p.is_file())
        diff = differing(base / "out-a", base / "out-b")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for line in broken:
        print(f"did not run: {line}", file=sys.stderr)
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(items)} gallery items, {files} files in {args.rev_b}: "
          f"{len(diff)} differ from {args.rev_a}")
    return 1 if diff or broken else 0


if __name__ == "__main__":
    sys.exit(main())
