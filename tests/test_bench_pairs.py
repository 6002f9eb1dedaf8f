"""tools/bench_pairs.py summarises pairs by its stated rule; no benchmark runs here."""

import importlib.util
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
