"""The summary ``scripts/ab_bench.py`` prints, on canned benchmark result lines."""

import importlib.util
import json
import os
import re

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "ab_bench.py")
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

METRICS = [
    {"name": "stage.convert_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "accuracy_fixed", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def _line(convert_s, accuracy, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": 0,
        "metrics": {"stage.convert_s": {"value": convert_s, "unit": "s"},
                    "accuracy_fixed": {"value": accuracy, "unit": "ratio"}},
    })


def test_summary_gives_medians_quartiles_ratio_and_wins():
    parent = [ab_bench.parse_result(f"env {{}}\n{_line(v, 0.9)}\n") for v in (0.4, 0.5, 0.6, 0.5)]
    # the change is faster in three pairs and ties the fourth; accuracy: one win, one loss
    change = [ab_bench.parse_result(_line(v, a))
              for v, a in ((0.3, 0.9), (0.4, 0.95), (0.6, 0.9), (0.4, 0.85))]
    lines = ab_bench.summarize(parent, change, METRICS)
    assert lines == [
        "stage.convert_s [s]: parent 0.5 (0.475-0.525), change 0.4 (0.375-0.45), "
        "ratio 0.800, change better in 3 of 4",
        "accuracy_fixed [ratio]: parent 0.9 (0.9-0.9), change 0.9 (0.8875-0.9125), "
        "ratio 1.000, change better in 1 of 4",
    ]


def test_summary_of_one_pair():
    parent, change = [json.loads(_line(2.0, 0.5))], [json.loads(_line(1.0, 0.5))]
    lines = ab_bench.summarize(parent, change, METRICS)
    assert lines[0].endswith("ratio 0.500, change better in 1 of 1")


@pytest.mark.parametrize("stdout, message", [
    ("", "printed no result line"),
    ("env {}\nTraceback\n", "printed no result line"),
    ("[1, 2]\n", "printed no result line"),
    (f"failure pass 2: model.snnc differs\n{_line(0.5, 0.9, correct=False)}\n",
     "reported correct: False (failure pass 2: model.snnc differs)"),
])
def test_failed_run_is_rejected(stdout, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ab_bench.parse_result(stdout)


def test_end_to_end_metrics_come_from_the_benchmark():
    names = [m["name"] for m in ab_bench.end_to_end_metrics()]
    assert "stage.convert_s" in names and "serve.p90_ms" in names


_LOWER = {"name": "stage.ablate_s", "unit": "s", "better": "lower", "bound": 0.25}
_HIGHER = {"name": "accuracy_fixed", "unit": "ratio", "better": "higher", "bound": 0.25}
_PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


@pytest.mark.parametrize("metric, parent, change, want", [
    # faster in every pair, the medians 0.20 apart against a parent IQR of 0.02
    (_LOWER, _PARENT, [v - 0.2 for v in _PARENT], "gain"),
    # nine of ten pairs suffice
    (_LOWER, _PARENT, [v - 0.2 for v in _PARENT[:9]] + [1.5], "gain"),
    # eight of ten do not, and a gap within the bound is no change
    (_LOWER, _PARENT, [v - 0.2 for v in _PARENT[:8]] + [1.5, 1.5], "no change"),
    # better in every pair, but by less than the parent's IQR
    (_LOWER, _PARENT, [v - 0.01 for v in _PARENT], "no change"),
    # a higher-is-better metric gains upward
    (_HIGHER, _PARENT, [v + 0.2 for v in _PARENT], "gain"),
    (_HIGHER, _PARENT, [v - 0.2 for v in _PARENT], "no change"),
    # worse than the parent's median by more than a quarter of it
    (_LOWER, _PARENT, [v * 1.3 for v in _PARENT], "regression"),
    (_HIGHER, _PARENT, [v * 0.7 for v in _PARENT], "regression"),
    # worse, but within the bound
    (_LOWER, _PARENT, [v * 1.2 for v in _PARENT], "no change"),
    # the parent's own runs spread wider than the bound
    (_LOWER, [0.8, 1.2] * 5, [0.7, 1.1] * 5, "unresolved"),
    # a wide spread still lets a clear gain through, and a regression out
    (_LOWER, [0.8, 1.2] * 5, [0.3] * 10, "gain"),
    (_LOWER, [0.9, 1.0, 1.1, 1.0] * 3, [2.0] * 12, "regression"),
])
def test_verdict(metric, parent, change, want):
    assert ab_bench.verdict(parent, change, metric) == want
