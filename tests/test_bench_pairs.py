"""tools/bench_pairs.py summarises pairs by its stated rule; no benchmark runs here."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change):
    return [{"parent": {"metrics": {"m": {"value": a}}},
             "change": {"metrics": {"m": {"value": b}}}} for a, b in zip(parent, change)]


def test_summary_medians_quartiles_and_wins():
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 5.0, 4.0])
    s = _tool().summarize(pairs, {"m": "lower"})["m"]
    assert s == {
        "parent_median": 3.0, "change_median": 2.0,
        "parent_quartiles": [2.0, 4.0], "change_quartiles": [2.0, 4.0],
        "parent_iqr": 2.0, "change_better_in": 3, "change_worse_in": 1,  # pair 2 ties
        "relative_change_of_median": pytest.approx(-1.0 / 3.0), "pairs": 5,
    }
    s = _tool().summarize(pairs, {"m": "higher"})["m"]
    assert (s["change_better_in"], s["change_worse_in"]) == (1, 3)


def test_summary_of_identical_sides_has_no_wins():
    pairs = _pairs([0.4, 0.6, 0.5, 0.7], [0.4, 0.6, 0.5, 0.7])
    s = _tool().summarize(pairs, {"m": "lower"})["m"]
    assert (s["change_better_in"], s["change_worse_in"], s["pairs"]) == (0, 0, 4)
    assert s["parent_quartiles"] == s["change_quartiles"] == [0.475, 0.625]
    assert s["relative_change_of_median"] == 0.0


def test_claim_is_met_when_the_median_gain_exceeds_the_parent_iqr_in_nine_of_ten():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.99, 0.91, 0.89, 0.90]  # pair 7 loses
    tool = _tool()
    s = tool.summarize(_pairs(parent, change), {"m": "lower"})["m"]
    verdict = tool.claim("m", s, "lower")
    assert verdict["met"] and verdict["change_better_in"] == 9 and verdict["wins_needed"] == 9
    assert verdict["median_gain"] == pytest.approx(0.1)
    assert verdict["median_gain"] > verdict["parent_iqr"]
    # the same runs, read as a metric where higher is better, are a loss
    higher = tool.summarize(_pairs(parent, change), {"m": "higher"})["m"]
    assert not tool.claim("m", higher, "higher")["met"]


def test_claim_is_not_met_when_the_gain_lies_within_the_parent_iqr():
    # better in all ten pairs, but by less than the parent's spread
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [x - 0.05 for x in parent]
    tool = _tool()
    s = tool.summarize(_pairs(parent, change), {"m": "lower"})["m"]
    verdict = tool.claim("m", s, "lower")
    assert s["change_better_in"] == 10 and not verdict["met"]
    assert verdict["median_gain"] == pytest.approx(0.05) and verdict["parent_iqr"] == pytest.approx(0.2)


@pytest.mark.parametrize("parent,change,verdict", [
    # the median 30 % worse, against a bound of 25 %
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.3, 1.31, 1.29, 1.3, 1.32], "worse"),
    # the parent's IQR is 0.6 of its median, above the bound, and some run of
    # the change reads worse than the parent's best
    ([0.6, 1.4, 1.0, 0.7, 1.3], [0.95, 1.0, 1.05, 0.9, 1.1], "unresolved"),
    # as wide, but every run of the change beats every run of the parent
    ([0.6, 1.4, 1.0, 0.7, 1.3], [0.5, 0.55, 0.45, 0.52, 0.58], "within bound"),
    # the median 20 % worse, within the bound, on a tight spread
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.2, 1.21, 1.19, 1.2, 1.22], "within bound"),
])
def test_regression_verdict_against_the_bound(parent, change, verdict):
    tool = _tool()
    pairs = _pairs(parent, change)
    s = tool.summarize(pairs, {"m": "lower"})["m"]
    assert tool.regression("m", s, pairs, "lower", 0.25) == verdict
    # read as a metric where higher is better, a worse median is a better one
    if verdict == "worse":
        s = tool.summarize(pairs, {"m": "higher"})["m"]
        assert tool.regression("m", s, pairs, "higher", 0.25) == "within bound"


def test_host_records_the_cores_of_the_affinity_beside_the_machine_cores():
    host = _tool()._host()
    assert host["cores"] == os.cpu_count()
    assert host["cpu_affinity"] == len(os.sched_getaffinity(0))
