"""Smoke test of the benchmark at a tiny size, plus the span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import glob
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import durations, layer_metrics, self_times, span_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.fixture(scope="module", autouse=True)
def _remove_tiny_runs():
    yield
    for path in glob.glob(os.path.join(ROOT, ".bench_build", "perfbench", "*-tiny-*")):
        shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0, out.stdout[-3000:]
    assert result["correct"] is True, out.stdout[-3000:]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        parts = values["engine.synaptic_s"] + values["engine.neuron_s"] + values["engine.bookkeeping_s"]
        assert parts == pytest.approx(values["engine.run_snn_s"], rel=1e-9)
        assert values["engine.run_snn.calls"] > 0 and values["nn.dense.calls"] > 0
    else:
        assert values["success_frac"] == 1.0


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, "r", extra]


def test_self_time_is_duration_minus_children_cover():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("store.load_model", 1.0, 3.0, 0),
        _span("nn.as_tensor", 1.5, 2.0, 1),
        _span("engine.spiking_layer_indices", 2.5, 4.0, 0),  # overlaps the sibling above
        _span("search.pareto_search", 5.0, 6.0, 0),
        _span("search.apply_plan", 9.5, 11.0, 0),  # ends after its parent
    ]
    # root: children cover [1, 4] + [5, 6] + [9.5, 10] = 4.5 of 10
    assert self_times(spans) == pytest.approx([5.5, 1.5, 0.5, 1.5, 1.0, 1.5])
    # the tracer's cost comes off once per child, and once per descendant
    assert self_times(spans, 0.1) == pytest.approx([5.1, 1.4, 0.5, 1.5, 1.0, 1.5])
    assert durations(spans, 0.1) == pytest.approx([9.5, 1.9, 0.5, 1.5, 1.0, 1.5])


def test_span_cost_is_small_and_positive():
    assert 0.0 < span_cost() < 1e-4


@pytest.mark.parametrize("cost", [0.0, 0.1])
def test_engine_split_accounts_for_run_snn(cost):
    dense0 = SimpleNamespace(kind="dense", in_features=4, out_features=3)
    relu1 = SimpleNamespace(kind="relu")
    head = SimpleNamespace(kind="dense", in_features=3, out_features=2)
    model = SimpleNamespace(layers=[dense0, relu1, head])
    spans = [_span("engine.run_snn", 0.0, 10.0, -1, (model, 1, 7, 14.0))]
    t = 0.5
    for _ in range(2):  # two timesteps
        spans.append(_span("nn.apply_layer", t, t + 1.0, 0, (dense0, (5, 4), (5, 3))))
        spans.append(_span("engine.step_layer", t + 1.0, t + 1.5, 0, 15))
        spans.append(_span("nn.apply_layer", t + 1.5, t + 2.0, 0, (head, (5, 3), (5, 2))))
        t += 2.5
    spans.append(_span("engine.layer_fanout", 9.0, 9.25, 0))
    m = layer_metrics(spans, cost)
    assert m["engine.run_snn.calls"] == 1
    assert m["engine.run_snn_s"] == pytest.approx(10.0 - 7 * cost)  # seven spans inside
    assert m["engine.synaptic_s"] == pytest.approx(3.0)
    assert m["engine.neuron_s"] == pytest.approx(1.0)
    # 5.75 self + 0.25 layer_fanout, less the tracer's cost for seven children
    assert m["engine.bookkeeping_s"] == pytest.approx(6.0 - 7 * cost)
    parts = m["engine.synaptic_s"] + m["engine.neuron_s"] + m["engine.bookkeeping_s"]
    assert parts == pytest.approx(m["engine.run_snn_s"], rel=1e-12)
    assert m["engine.layer0.synaptic_s"] == pytest.approx(2.0)
    assert m["engine.layer1.neuron_s"] == pytest.approx(1.0)
    assert m["engine.head.synaptic_s"] == pytest.approx(1.0)
    assert m["engine.first_layer_calls_per_run"] == 2
    assert m["engine.neuron_steps"] == 30
    assert m["nn.dense.calls"] == 4
    assert m["nn.dense_macs"] == 2 * (5 * 4 * 3 + 5 * 3 * 2)
    assert m["engine.spikes"] == 7 and m["engine.synops"] == 14.0
