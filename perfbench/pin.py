"""Pin the outputs that the benchmark's correctness gate compares against.

    python3 perfbench/pin.py

Writes perfbench/expected.json: the records of every operation whose input
does not depend on the seed, and those of the seeded operations for seeds
0 .. PINNED_SEEDS - 1. It refuses to pin an operation that raises or fails its
rechecks. Regenerating the file changes what counts as correct, so do it
only deliberately and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

PINNED_SEEDS = 32


def records(workload, seed, seeded_only):
    """Records of the operations run, and the names of the seeded ones."""
    with tempfile.TemporaryDirectory(dir=HERE) as out_dir:
        ops = [op for op in workloads.build_ops(workload, workloads.make_inputs(workload, seed),
                                                out_dir)
               if op.seeded or not seeded_only]
        done = workloads.run_ops(ops)
        for name, problems in workloads.check(done, None):
            if problems:
                raise SystemExit(f"{workload} seed {seed} {name}: {'; '.join(problems)}")
        return ({op.name: op.record(out) for op, out, _ in done},
                {op.name for op in ops if op.seeded})


def main() -> int:
    expected = {}
    for workload in workloads.WORKLOADS:
        first, seeded = records(workload, 0, seeded_only=False)
        table = {"fixed": {k: v for k, v in first.items() if k not in seeded}, "seeds": {}}
        if seeded:
            table["seeds"]["0"] = {k: v for k, v in first.items() if k in seeded}
            for seed in range(1, PINNED_SEEDS):
                table["seeds"][str(seed)] = records(workload, seed, seeded_only=True)[0]
                print(workload, seed, flush=True)
        expected[workload] = table
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        fh.write(dumps(expected))
    return 0


def dumps(expected) -> str:
    """JSON with one line per workload's fixed records and per pinned seed."""
    parts = []
    for workload, table in expected.items():
        seeds = ",".join(f'\n   "{s}": {json.dumps(r)}' for s, r in table["seeds"].items())
        close = "\n  }" if seeds else "}"
        parts.append(f' "{workload}": {{\n  "fixed": {json.dumps(table["fixed"])},\n'
                     f'  "seeds": {{{seeds}{close}\n }}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
