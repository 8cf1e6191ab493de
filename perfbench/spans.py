"""Spans recorded from outside the program, and the per-layer metrics built on them.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the wrapper in every ``spikecal`` module that holds the original, so
names bound with ``from ... import`` (``apply_layer`` in ``engine``,
``run_snn`` in ``search``, ``calibrate`` and ``early_exit``) are traced too.
Nothing under ``src/`` changes, and ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, request, extra]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``request`` the stage or serve
request it belongs to, ``extra`` what a few spans note about their arguments
and results (shapes, spike counts, bytes written). Spans stay in memory until
``write`` is called at the end of the run.

The wrapper's own work outside the span it records (building the span, the
stack push and pop, the clock reads, the extra callback) lands in the
caller's span. ``span_cost`` measures it once on an empty function, and the
metrics take it off each span once per span nested inside it.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("cli", "store", "train", "nn", "engine", "calibrate", "search", "early_exit")

# Private helpers wrapped as well, because their results give counts that no
# public function exposes: how many plans pareto_search scores.
PRIVATE_HOOKS = {"search": ("_exhaustive_plans", "_sweep_plans")}

NAME, START, END, PARENT, REQUEST, EXTRA = range(6)


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _apply_layer_extra(args, kwargs, result):
    layer, x = _arg(args, kwargs, 0, "layer"), _arg(args, kwargs, 1, "x")
    return (layer, x.shape, result.shape)


def _step_layer_extra(args, kwargs, result):
    return _arg(args, kwargs, 0, "state").v.size


def _run_snn_extra(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    stop = kwargs.get("stop_layer")
    simulated = sum(
        1 for i, layer in enumerate(model.layers)
        if layer.kind == "relu" and (stop is None or i <= stop)
    )
    stats = result.stats
    return (model, simulated, stats.total_spikes, float(sum(stats.layer_synops.values())))


def _infer_adaptive_extra(args, kwargs, result):
    policy = _arg(args, kwargs, 2, "policy")
    return (int(result.exit_t.sum()), len(result.exit_t), policy.t_max, int(result.spikes_per_input.sum()))


def _train_extra(args, kwargs, result):
    dataset = _arg(args, kwargs, 1, "dataset")
    return len(dataset.labels) * int(_arg(args, kwargs, 2, "epochs"))


def _saved_bytes_extra(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return os.path.getsize(path)


def _count_extra(args, kwargs, result):
    return len(result)


EXTRAS = {
    "nn.apply_layer": _apply_layer_extra,
    "engine.step_layer": _step_layer_extra,
    "engine.run_snn": _run_snn_extra,
    "early_exit.infer_adaptive": _infer_adaptive_extra,
    "train.train_reference": _train_extra,
    "store.save_model": _saved_bytes_extra,
    "store.save_cache": _saved_bytes_extra,
    "search._exhaustive_plans": _count_extra,
    "search._sweep_plans": _count_extra,
}


class Tracer:
    """Wraps the layer modules' functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"spikecal.{layer}"]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or attr in PRIVATE_HOOKS.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, EXTRAS.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "spikecal" and not modname.startswith("spikecal."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,request\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START] - t0!r},{s[END] - t0!r},{s[PARENT]},{s[REQUEST]}\n")


def span_cost() -> float:
    """Seconds that tracing one call adds to its caller's span.

    Times 20,000 calls of an empty function with ``apply_layer``'s arguments
    and extra callback, the most frequent span, wrapped and bare: the wrapped
    loop's time, less the time its spans cover, less the bare loop's time.
    Median of seven such measurements.
    """
    import numpy as np

    calls, repeats = 20000, 7

    def empty(layer, x):
        return x

    tracer = Tracer()
    wrapped = tracer._wrap("calibration", empty, _apply_layer_extra)
    layer, x = object(), np.zeros(1)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(layer, x)
        t1 = perf_counter()
        for _ in range(calls):
            empty(layer, x)
        t2 = perf_counter()
        inside = sum(s[END] - s[START] for s in tracer.spans)
        costs.append(((t1 - t0) - inside - (t2 - t1)) / calls)
    costs.sort()
    return costs[len(costs) // 2]


def durations(spans, cost: float = 0.0) -> list[float]:
    """Each span's duration less ``cost`` per span nested inside it."""
    nested = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # a parent is recorded before its children
        p = spans[i][PARENT]
        if p >= 0:
            nested[p] += 1 + nested[i]
    return [s[END] - s[START] - cost * k for s, k in zip(spans, nested)]


def self_times(spans, cost: float = 0.0) -> list[float]:
    """Each span's duration minus the part of it that its children cover,
    less ``cost`` per child for the tracer's work on the child's behalf."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        mine = sorted(children.get(i, ()))
        for c_start, c_end in mine:
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered - cost * len(mine))
    return out


def _macs(layer, in_shape, out_shape) -> int:
    """Multiply-accumulates of one dense or conv2d call, computed from shapes."""
    if layer.kind == "dense":
        return in_shape[0] * layer.in_features * layer.out_features
    if layer.kind == "conv2d":
        kh, kw = layer.kernel
        return in_shape[0] * out_shape[1] * out_shape[2] * out_shape[3] * layer.in_channels * kh * kw
    return 0


def layer_metrics(spans, cost: float = 0.0) -> dict[str, float]:
    """Per-layer metrics of a traced run, keyed by the benchmark's names.

    Every time is corrected for the tracer by ``cost`` seconds per nested span
    (see ``span_cost``).
    """
    selfs = self_times(spans, cost)
    dur = durations(spans, cost)

    def under(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def total(name: str) -> float:
        return sum(d for s, d in zip(spans, dur) if s[NAME] == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    def extras(*names: str) -> list:
        # a call that raised has no extra
        return [s[EXTRA] for s in spans if s[NAME] in names and s[EXTRA] is not None]

    m: dict[str, float] = {}
    m["cli.self_s"] = sum(t for s, t in zip(spans, selfs) if s[NAME].startswith("cli."))
    for name in ("store.make_synthetic", "store.model_digest"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}_s"] = total(name)
    m["store.io_s"] = sum(
        total(f"store.{fn}") for fn in ("save_model", "load_model", "save_cache", "load_cache")
    )
    m["store.bytes_written"] = sum(extras("store.save_model", "store.save_cache"))

    m["train.train_reference_s"] = total("train.train_reference")
    samples = sum(extras("train.train_reference"))
    m["train.samples_per_s"] = samples / m["train.train_reference_s"] if samples else 0.0

    by_kind = {"dense": [0, 0.0, 0], "conv2d": [0, 0.0, 0], "avgpool2d": [0, 0.0, 0]}
    apply_s = 0.0
    for s, d in zip(spans, dur):
        if s[NAME] != "nn.apply_layer" or s[EXTRA] is None:
            continue
        apply_s += d
        layer, in_shape, out_shape = s[EXTRA]
        if layer.kind in by_kind:
            acc = by_kind[layer.kind]
            acc[0] += 1
            acc[1] += d
            acc[2] += _macs(layer, in_shape, out_shape)
    m["nn.apply_layer_s"] = apply_s
    m["nn.dense.calls"], m["nn.dense_s"], m["nn.dense_macs"] = by_kind["dense"]
    m["nn.conv2d.calls"], conv_s, m["nn.conv2d_macs"] = by_kind["conv2d"]
    m["nn.conv2d_time_share"] = conv_s / apply_s if apply_s else 0.0
    m["nn.avgpool2d_time_share"] = by_kind["avgpool2d"][1] / apply_s if apply_s else 0.0

    # engine: split each run_snn into synaptic (apply_layer), neuron
    # (step_layer) and everything else, per graph layer where it applies.
    runs = [i for i, s in enumerate(spans) if s[NAME] == "engine.run_snn" and s[EXTRA] is not None]
    run_set = set(runs)
    synaptic = neuron = other = 0.0
    per_layer: dict[tuple[int | str, str], float] = {}
    neuron_steps = first_layer_calls = 0
    last_applied: dict[int, int] = {}
    index_of: dict[int, dict[int, int]] = {}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if i in run_set:
            other += selfs[i]
            model = s[EXTRA][0]
            index_of[i] = {id(layer): k for k, layer in enumerate(model.layers)}
            continue
        if parent not in run_set:
            continue
        if s[NAME] == "nn.apply_layer" and s[EXTRA] is not None:
            k = index_of[parent][id(s[EXTRA][0])]
            last_applied[parent] = k
            synaptic += dur[i]
            per_layer[(k, "synaptic")] = per_layer.get((k, "synaptic"), 0.0) + dur[i]
            if k == len(index_of[parent]) - 1:
                per_layer[("head", "synaptic")] = per_layer.get(("head", "synaptic"), 0.0) + dur[i]
            first_layer_calls += k == 0
        elif s[NAME] == "engine.step_layer" and s[EXTRA] is not None:
            k = last_applied.get(parent, -1) + 1
            neuron += dur[i]
            neuron_steps += s[EXTRA]
            per_layer[(k, "neuron")] = per_layer.get((k, "neuron"), 0.0) + dur[i]
        else:
            other += dur[i]
    m["engine.run_snn.calls"] = len(runs)
    m["engine.run_snn_s"] = sum(dur[i] for i in runs)
    m["engine.synaptic_s"] = synaptic
    m["engine.neuron_s"] = neuron
    m["engine.bookkeeping_s"] = other
    # every graph layer the runs had; the benchmark reports the three that
    # all its workloads share, and the rest go to the run details
    for (k, kind), t in sorted(per_layer.items(), key=str):
        m[f"engine.{k if k == 'head' else f'layer{k}'}.{kind}_s"] = t
    for k, kind in ((0, "synaptic"), (1, "neuron"), (2, "synaptic"), ("head", "synaptic")):
        m.setdefault(f"engine.{k if k == 'head' else f'layer{k}'}.{kind}_s", 0.0)
    m["engine.neuron_steps"] = neuron_steps
    m["engine.spikes"] = sum(spans[i][EXTRA][2] for i in runs)
    m["engine.synops"] = sum(spans[i][EXTRA][3] for i in runs)
    m["engine.first_layer_calls_per_run"] = first_layer_calls / len(runs) if runs else 0.0

    m["calibrate.fit_all_thresholds_s"] = total("calibrate.fit_all_thresholds")
    m["calibrate.calibrate_biases_s"] = total("calibrate.calibrate_biases")
    m["calibrate.calibrate_biases.layer_evals"] = sum(
        spans[i][EXTRA][1] for i in runs if under(i, "calibrate.calibrate_biases")
    )
    m["calibrate.measure_unevenness_s"] = total("calibrate.measure_unevenness")

    m["search.build_table_s"] = total("search.build_table")
    in_table = [i for i in runs if under(i, "search.build_table")]
    m["search.build_table.run_snn_calls"] = len(in_table)
    m["search.build_table.layer_evals"] = sum(spans[i][EXTRA][1] for i in in_table)
    m["search.pareto_search_s"] = total("search.pareto_search")
    m["search.plans_scored"] = sum(extras("search._exhaustive_plans", "search._sweep_plans"))

    m["early_exit.fit_exit_policy_s"] = total("early_exit.fit_exit_policy")
    m["early_exit.infer_adaptive_s"] = total("early_exit.infer_adaptive")
    exits = extras("early_exit.infer_adaptive")
    exit_sum = sum(e[0] for e in exits)
    inputs = sum(e[1] for e in exits)
    steps = sum(e[1] * e[2] for e in exits)
    m["early_exit.mean_exit_t"] = exit_sum / inputs if inputs else 0.0
    m["early_exit.steps_simulated"] = steps
    m["early_exit.useful_step_ratio"] = exit_sum / steps if steps else 0.0
    m["early_exit.spikes_per_input"] = sum(e[3] for e in exits) / inputs if inputs else 0.0
    return m
