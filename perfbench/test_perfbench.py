"""Tests of the benchmark itself: seeds, the correctness gate and the tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

They take about a minute. They are not part of the repository's test suite,
whose testpaths cover tests/ only.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from metriclab import build_grid, flat_metric, geodesy, square, width  # noqa: E402

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)

HELD_OUT_SEED = 29      # pinned, but never used while the benchmark was tuned
UNPINNED_SEED = 10 ** 6


def scratch_dir():
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    return tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results"))


def run_checks(workload, seed, expected=EXPECTED):
    pinned, seed_pinned = workloads.pinned_for(expected, workload, seed)
    with scratch_dir() as out_dir:
        inputs = workloads.make_inputs(workload, seed)
        done = workloads.run_ops(workloads.build_ops(workload, inputs, out_dir))
        return workloads.check(done, pinned), seed_pinned


def failed(checks):
    return [name for name, problems in checks if problems]


@pytest.mark.parametrize("workload,key", [("loop-systole", "bumps"), ("field-sweep", "spd")])
def test_seed_alone_decides_the_seeded_inputs(workload, key):
    a = workloads.make_inputs(workload, 3)[key]
    again = workloads.make_inputs(workload, 3)[key]
    b = workloads.make_inputs(workload, 4)[key]
    items = (lambda d: list(d.values())) if isinstance(a, dict) else list
    for x, y, z in zip(items(a), items(again), items(b)):
        assert np.array_equal(x, y)
        assert not np.allclose(x, z)


@pytest.mark.parametrize("workload", ["loop-systole", "field-sweep"])
def test_held_out_seed_has_no_failures(workload):
    checks, seed_pinned = run_checks(workload, HELD_OUT_SEED)
    assert seed_pinned
    assert len(checks) == {"loop-systole": 4, "field-sweep": 22}[workload]
    assert failed(checks) == []


def test_unpinned_seed_is_rechecked_without_failures():
    checks, seed_pinned = run_checks("field-sweep", UNPINNED_SEED)
    assert not seed_pinned
    assert failed(checks) == []


def test_perturbed_expected_values_are_failures():
    expected = copy.deepcopy(EXPECTED)
    table = expected["field-sweep"]
    table["seeds"]["0"]["spd-05"]["vol"] *= 1 + 1e-9
    rows = table["fixed"]["coarea-flat-square"]["rows"]
    rows[0][3] = "INFO"
    checks, _ = run_checks("field-sweep", 0, expected)
    assert failed(checks) == ["spd-05", "coarea-flat-square"]


def test_compare_tolerances():
    assert workloads.compare(1.0 + 1e-13, 1.0) == []
    assert workloads.compare(1.0 + 1e-11, 1.0) != []
    assert workloads.compare([64, "systole", 0.5, "PASS"], [64, "systole", 0.5, "FAIL"]) != []
    assert workloads.compare(True, 1.0) != []
    assert workloads.compare({"a": 1}, {"a": 1, "b": 2}) != []


def test_tracer_records_spans_at_import_sites_and_restores():
    field = flat_metric(build_grid(square(), 16))
    original = geodesy.distance_field
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("op.test"):
            width.set_radius_exact(field, [0, 5])      # width binding -> distance_matrix
            width.distance_field(field, [0])           # width binding of distance_field
    finally:
        tracer.restore()
    assert geodesy.distance_field is original and width.distance_field is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "op.test"
    assert {"geodesy.set_radius_exact", "geodesy.distance_matrix", "geodesy.dijkstra",
            "geodesy.distance_field", "fields.graph"} <= set(names)
    assert tracer.counters["geodesy.distance_matrix_rows"] == 2
    assert tracer.counters["geodesy.dijkstra_max_vertices"] == 256
    selfs = tracing.self_times(tracer.spans)
    top = tracer.spans[0][2] - tracer.spans[0][1]
    assert all(t >= -1e-9 for t in selfs)
    assert sum(selfs) == pytest.approx(top, rel=1e-9, abs=1e-9)
    assert tracing.inclusive(tracer.spans, ["op.test", "geodesy.dijkstra"]) == pytest.approx(top)


def test_unwrapped_functions_are_listed_and_their_metrics_left_out():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.restore()
    assert tracer.missing == []
    renamed = tracing.Tracer()
    renamed.patch(geodesy, "no_such_function", "geodesy.lifted_graph")
    assert renamed.missing == ["metriclab.geodesy.no_such_function"]
    metrics = tracing.per_layer_metrics(renamed, 1.0, 1.0, 0)
    assert "geodesy.lifted_graph_s" not in metrics
    assert "geodesy.loop_search_s" not in metrics
    assert metrics["trace.wall_s"] == 1.0


def copy_checkout(dest, with_program=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def run_benchmark(checkout, workload="field-sweep"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170)


def test_benchmark_refuses_to_run_without_the_program():
    with scratch_dir() as d:
        copy_checkout(d, with_program=False)
        proc = run_benchmark(d)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_reports_failures_and_no_metrics_for_a_wrong_output():
    with scratch_dir() as d:
        copy_checkout(d)
        path = os.path.join(d, "perfbench", "expected.json")
        with open(path) as fh:
            expected = json.load(fh)
        expected["field-sweep"]["fixed"]["radius-flat-square"]["value"] *= 1 + 1e-9
        with open(path, "w") as fh:
            json.dump(expected, fh)
        proc = run_benchmark(d)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= 22
    assert result["metrics"] == {}
