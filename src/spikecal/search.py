"""Per-layer sensitivity measurement and budgeted plan search.

Each candidate setting of one layer (burst cap ``phi`` or compression ratio
``rho``) is scored by how far it moves the converted net's output
distribution from the source net on the calibration subset:

    S_i(k) = mean_j KL(softmax(source logits_j) || softmax(converted scores_j))

with all other layers held at their baseline config, and by the energy
attributed to that layer in the same run. Energy follows the spike-count
convention

    E = unit_spikes / 1e-3 * mu      (Watts; a 1 ms inference window)

optionally weighted by fan-out (``synop`` mode). A plan assigns one candidate
per layer; the search minimizes total sensitivity under an energy cap (burst
search) or total energy under a sensitivity cap (compression search). It is
exact at every table size: the layers are merged one at a time, keeping only
the partial plans that no earlier one dominates (the Pareto dynamic program
for multiple-choice knapsack), and the plan is read off the Pareto frontier
the last merge leaves. Ties go to the first plan in ``itertools.product``
order, as enumerating every plan would send them.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import store
from .engine import (
    DEFAULT_MEMBRANE_INIT,
    LayerSnnConfig,
    RunStats,
    _currents,
    _layer_major,
    _on_helper,
    _prepare,
    _run_layer,
    _RunPlan,
    _simulate,
    _single_dense,
    _Workspace,
    layer_fanout,
    run_snn,
    spiking_layer_indices,
)
from .nn import ModelGraph, _check_batch, softmax
from .store import CalibrationCache


@dataclass(frozen=True)
class EnergyModel:
    """Joules per unit spike and the counting mode (spike_count or synop)."""

    mu: float = 77e-15
    mode: str = "spike_count"

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.mode not in ("spike_count", "synop"):
            raise ValueError(f"unknown energy mode {self.mode!r}")


class EnergyOverflowError(ValueError):
    """An energy too large for a float: ``mu`` times the spike count overflows."""


def _finite(watts: float, model: EnergyModel) -> float:
    if not math.isfinite(watts):
        raise EnergyOverflowError(
            f"energy.mu = {model.mu!r} J per spike makes an energy of {watts}; lower energy.mu"
        )
    return watts


def energy_of(stats: RunStats, model: EnergyModel = EnergyModel()) -> float:
    """Energy of a run under the 1 ms window convention, in Watts; one that
    overflows raises ``EnergyOverflowError``."""
    if model.mode == "synop":
        count = float(sum(stats.layer_synops.values()))
    else:
        count = float(stats.total_spikes)
    return _finite(count / 1e-3 * model.mu, model)


_EPS = 1e-12


def kl_divergence(p, q):
    """KL(p || q) along the last axis, natural log, probabilities floored at 1e-12."""
    pf = np.maximum(np.asarray(p, dtype=np.float64), _EPS)
    qf = np.maximum(np.asarray(q, dtype=np.float64), _EPS)
    return np.sum(pf * np.log(pf / qf), axis=-1)


@dataclass
class SensitivityTable:
    """S and E for every (layer, candidate) pair, one knob kind at a time."""

    kind: str  # "phi" or "rho"
    layers: list[int]
    candidates: list[int]
    sample_count: int
    s: dict[tuple[int, int], float] = field(default_factory=dict)
    e: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("phi", "rho"):
            raise ValueError(f"table kind must be phi or rho, got {self.kind!r}")


@dataclass(frozen=True)
class SearchBudget:
    """Either an ``energy_cap`` (minimize S) or a ``sensitivity_cap`` (minimize E)."""

    kind: str
    cap: float

    def __post_init__(self):
        if self.kind not in ("energy_cap", "sensitivity_cap"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if not (self.cap >= 0 or np.isinf(self.cap)):
            raise ValueError(f"budget cap must be nonnegative, got {self.cap}")


@dataclass
class LayerPlan:
    """A candidate choice per layer plus the aggregates the search achieved."""

    kind: str
    layers: list[int]
    choice: dict[int, int]
    s_sum: float
    e_sum: float
    feasible: bool
    budget: SearchBudget
    frontier: list[tuple[float, float]] = field(default_factory=list)


def _with_candidate(
    configs: list[LayerSnnConfig], position: int, kind: str, value: int
) -> list[LayerSnnConfig]:
    out = list(configs)
    out[position] = replace(configs[position], **{kind: int(value)})
    return out


def _check_sensitivity_inputs(model: ModelGraph, cache: CalibrationCache) -> np.ndarray:
    """The source net's output distribution on the calibration subset."""
    cache.check_model(model)
    if model.class_count != cache.logits.shape[1]:
        raise ValueError(
            f"model emits {model.class_count} classes, cache logits carry {cache.logits.shape[1]}"
        )
    return softmax(np.asarray(cache.logits, dtype=np.float64), axis=1)


def _measure(model, layer, target, scores, spikes, energy, sample_count) -> tuple[float, float]:
    """S of a trial's scores against ``target``, and E of ``layer``'s unit spikes."""
    s = float(np.mean(kl_divergence(target, softmax(scores, axis=1))))
    count = spikes * layer_fanout(model, layer) if energy.mode == "synop" else spikes
    return s, _finite(float(count) / sample_count / 1e-3 * energy.mu, energy)


def build_table(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    cache: CalibrationCache,
    timesteps: int,
    kind: str,
    candidates: list[int],
    energy: EnergyModel = EnergyModel(),
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
) -> SensitivityTable:
    """Measure S and E for every (spiking layer, candidate) pair.

    Each pair equals, bit for bit, the (S, E) of a whole-net ``run_snn`` of
    that trial alone. A trial changes one layer, so everything upstream of
    it runs at baseline: the baseline run (the trunk) is made once and keeps
    its spike trains, and a candidate equal to the baseline value is the
    trunk itself. At each layer p the feeder currents from the trunk's train
    entering p (or from the constant input) are computed once, and p's
    neuron runs on them for each other candidate. Candidates whose layer-p
    trains are equal (same threshold and count values) share one downstream
    run; a train equal to the trunk's takes the trunk's scores. The
    currents are dropped before the downstream runs start, and those of an
    MLP run on two lanes (``_run_trials``). An empty or repeated
    candidate set is a ``ValueError``; an E, or a plan's total E, too large
    for a float is an ``EnergyOverflowError``.
    """
    if kind not in ("phi", "rho"):
        raise ValueError(f"table kind must be phi or rho, got {kind!r}")
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate set is empty")
    for i, cand in enumerate(candidates):
        if cand in candidates[:i]:
            raise ValueError(f"candidate {cand} appears more than once")
    target = _check_sensitivity_inputs(model, cache)
    layers = spiking_layer_indices(model)
    table = SensitivityTable(
        kind=kind, layers=layers, candidates=candidates, sample_count=cache.sample_count
    )
    trunk = run_snn(
        model, configs, cache.inputs, timesteps, membrane_init=membrane_init, record_trains=True
    )
    # keep what the trials read; the trunk's v_last and step_spikes go
    base_scores, base_spikes, trains = trunk.scores, trunk.stats.layer_spikes, trunk.trains
    del trunk
    # every layer downstream of a trial runs at baseline: one plan, cast once
    plan = _prepare(model, configs)
    source, start = _check_batch(model, np.asarray(cache.inputs, dtype=np.float64)), 0
    for pos, layer in enumerate(layers):
        currents = list(_currents(model.layers[start:layer], source, timesteps))
        # the distinct layer-p trains, the trunk's first; (spikes, train index) per candidate
        distinct, picks = [trains[layer]], []
        for cand in candidates:
            if cand == getattr(configs[pos], kind):
                picks.append((base_spikes[layer], 0))
                continue
            trial = _with_candidate(configs, pos, kind, cand)
            train, _ = _run_layer(currents, trial[pos], timesteps, membrane_init)
            i = next((i for i, tr in enumerate(distinct) if tr.equals(train)), len(distinct))
            if i == len(distinct):
                distinct.append(train)
            picks.append((int(train.counts.sum(dtype=np.int64)), i))
        del currents  # never hold feeder currents beside a downstream run
        scores = np.empty((len(distinct), *base_scores.shape))
        scores[0] = base_scores
        # the size of layer p's train at a step, of each later spiking layer's, of the scores
        sizes = [trains[i].counts[0].size for i in layers[pos:]] + [base_scores.size]
        _run_trials(plan, layer + 1, distinct[1:], scores[1:], sizes, membrane_init)
        for cand, (spikes, i) in zip(candidates, picks):
            table.s[(layer, cand)], table.e[(layer, cand)] = _measure(
                model, layer, target, scores[i], spikes, energy, cache.sample_count
            )
        del distinct, scores
        source, start = trains[layer], layer + 1
    # a plan's E adds one entry per layer in this order; no sum exceeds this one
    _finite(sum(max(table.e[(layer, c)] for c in candidates) for layer in layers), energy)
    return table


def _trial(plan: _RunPlan, start: int, train, out: np.ndarray, ws: _Workspace,
           membrane_init: float) -> None:
    """One downstream run of the table: write into ``out`` the scores [N,
    classes] of the run of ``plan`` resumed at graph index ``start`` from
    ``train`` (``engine._layer_major``), bit for bit the last row of
    ``_simulate(plan, start, train, T, membrane_init)``'s scores."""
    _layer_major(plan, start, train, len(train.counts), ws, membrane_init, out)


def _run_trials(plan: _RunPlan, start: int, trains: list, slots: np.ndarray, sizes: list[int],
                membrane_init: float) -> None:
    """Each of ``trains``' downstream runs, resumed at graph index
    ``start``, into its slot of ``slots``.

    When every feeder downstream is one dense layer, the runs go through
    ``_trial``: the calling thread and, when there are two runs or more,
    one helper thread pull them from one ordered list, each in its own
    workspace (``_Workspace.of`` ``sizes``), made here. The helper is joined
    before this returns, and what it raised is raised here. Other runs
    (every CNN's) are ``_simulate`` on the calling thread: for conv layers
    the layer-major loop's count buffers cost more memory and time than
    the time-major run.
    """
    if not trains:
        return
    timesteps, first = len(trains[0].counts), bisect.bisect_right(plan.begins, start) - 1
    if not all(map(_single_dense, plan.feeds[first:])):
        for train, slot in zip(trains, slots):
            slot[...] = _simulate(plan, start, train, timesteps, membrane_init)[0][-1]
        return
    dtype = np.min_scalar_type(max((c.phi for _, c, *_ in plan.spiking[first:]), default=1))
    workspaces = [_Workspace.of(sizes, timesteps, dtype) for _ in trains[:2]]
    jobs = collections.deque(zip(trains, slots))  # popleft is thread-safe
    helper = contextlib.nullcontext()
    if len(workspaces) > 1:
        helper = _on_helper(functools.partial(_lane, plan, start, jobs, workspaces[1], membrane_init),
                            "spikecal-trials")
    with helper:
        try:
            _lane(plan, start, jobs, workspaces[0], membrane_init)
        finally:
            jobs.clear()  # a failed lane stops the other after its current run


def _lane(plan, start, jobs, ws, membrane_init) -> None:
    """Take runs off ``jobs`` and make them in ``ws`` until none is left."""
    while True:
        try:
            train, slot = jobs.popleft()
        except IndexError:
            return
        _trial(plan, start, train, slot, ws, membrane_init)


def _merge_plans(table: SensitivityTable):
    """Every plan a search of all plans could pick, and the Pareto frontier.

    Merges the layers one at a time, from one empty plan (Nemhauser & Ullmann,
    "Discrete Dynamic Programming and Capital Allocation", 1969). Each kept
    row is extended by every candidate, old row major, and a new row is kept
    unless an earlier one has S and E no greater: a staircase of the rows so
    far (S ascending, E descending) answers that by bisection. Sums are added
    in table-layer order, as a Python ``sum`` over one plan's layers adds
    them, and rounding is monotone, so every plan is weakly dominated by a
    kept plan no later in product order. The last staircase is therefore the
    frontier: the distinct nondominated (S, E) points, each reached by
    exactly one kept row, the first plan in product order to reach it.

    Returns the kept rows (candidate indices, one column per layer, in
    product order), their S and E sums, and the frontier's (S, E) points.
    """
    n = len(table.candidates)
    plans = np.zeros((1, 0), dtype=np.intp)
    s_sums, e_sums = np.zeros(1), np.zeros(1)
    stair_s, stair_neg_e = [0.0], [-0.0]  # the empty plan's, when there are no layers
    for layer in table.layers:
        s_rows = (s_sums[:, None] + [table.s[(layer, c)] for c in table.candidates]).ravel()
        e_rows = (e_sums[:, None] + [table.e[(layer, c)] for c in table.candidates]).ravel()
        kept, stair_s, stair_neg_e = [], [], []
        for row, (s, e) in enumerate(zip(s_rows.tolist(), e_rows.tolist())):
            i = bisect.bisect_right(stair_s, s)
            if i and stair_neg_e[i - 1] >= -e:
                continue
            # the new row replaces the staircase rows it weakly dominates
            lo = bisect.bisect_left(stair_s, s)
            hi = bisect.bisect_right(stair_neg_e, -e, lo)
            stair_s[lo:hi], stair_neg_e[lo:hi] = [s], [-e]
            kept.append(row)
        kept = np.array(kept, dtype=np.intp)
        plans = np.column_stack((plans[kept // n], kept % n))
        s_sums, e_sums = s_rows[kept], e_rows[kept]
    return plans, s_sums, e_sums, [(s, -neg_e) for s, neg_e in zip(stair_s, stair_neg_e)]


def pareto_search(table: SensitivityTable, budget: SearchBudget) -> LayerPlan:
    """Choose one candidate per layer under the budget.

    ``energy_cap`` minimizes total sensitivity subject to total energy within
    the cap; ``sensitivity_cap`` swaps the roles. An infeasible budget returns
    ``feasible=False`` carrying the cheapest plan available instead of raising.
    The pick is read off the frontier ``_merge_plans`` leaves: E falls along
    it, so under an energy cap the feasible points are a suffix and the
    first of them is best, while under a sensitivity cap they are a prefix
    and the last is best; the cheapest point is the last (energy) or the
    first (sensitivity). The search is exact at every size: its plan, sums,
    feasibility and frontier equal those of scoring every plan, and exact
    ties go to the first plan in ``itertools.product`` order.
    """
    plans, s_sums, e_sums, frontier = _merge_plans(table)
    if budget.kind == "energy_cap":  # the points with E <= cap, a suffix
        i = bisect.bisect_left(frontier, -budget.cap, key=lambda point: -point[1])
        feasible, pick = i < len(frontier), min(i, len(frontier) - 1)
    else:  # the points with S <= cap, a prefix
        i = bisect.bisect_right(frontier, budget.cap, key=lambda point: point[0])
        feasible, pick = i > 0, max(i - 1, 0)
    s, e = frontier[pick]
    row = plans[np.flatnonzero((s_sums == s) & (e_sums == e))[0]]
    return LayerPlan(
        kind=table.kind,
        layers=list(table.layers),
        choice={layer: table.candidates[j] for layer, j in zip(table.layers, row)},
        s_sum=s,
        e_sum=e,
        feasible=feasible,
        budget=budget,
        frontier=frontier,
    )


def apply_plan(configs: list[LayerSnnConfig], plan: LayerPlan) -> list[LayerSnnConfig]:
    """New config list with the plan's knob applied; thresholds untouched by phi."""
    if len(configs) != len(plan.layers):
        raise ValueError(
            f"plan covers {len(plan.layers)} layers, configs cover {len(configs)}"
        )
    return [
        replace(base, **{plan.kind: int(plan.choice[layer])})
        for base, layer in zip(configs, plan.layers)
    ]


# ---------------------------------------------------------------------------
# persistence

_TABLE_HEADER = "layer,candidate,kind,S,E,N"


def table_to_csv(table: SensitivityTable, path) -> None:
    lines = [_TABLE_HEADER]
    for layer in table.layers:
        for cand in table.candidates:
            lines.append(
                f"{layer},{cand},{table.kind},"
                f"{table.s[(layer, cand)]!r},{table.e[(layer, cand)]!r},{table.sample_count}"
            )
    store.write_atomic(path, lines)


def save_plan(plan: LayerPlan, path) -> None:
    lines = [
        "format snnc-plan",
        f"kind {plan.kind}",
        f"budget {plan.budget.kind} {plan.budget.cap!r}",
        f"feasible {str(plan.feasible).lower()}",
        f"s_sum {plan.s_sum!r}",
        f"e_sum {plan.e_sum!r}",
    ]
    for layer in plan.layers:
        lines.append(f"choice layer {layer} value {plan.choice[layer]}")
    for s, e in plan.frontier:
        lines.append(f"frontier {s!r} {e!r}")
    store.write_atomic(path, lines)


def load_plan(path) -> LayerPlan:
    doc = store.read_lines(path, "format snnc-plan")
    (kind,) = doc.take("kind", str)
    if kind not in ("phi", "rho"):
        raise doc.error(f"plan kind must be phi or rho, got {kind!r}")
    budget_kind, cap = doc.take("budget", str, float)
    with doc.check():
        budget = SearchBudget(budget_kind, cap)
    (feasible,) = doc.take("feasible", bool)
    (s_sum,) = doc.take("s_sum", float)
    (e_sum,) = doc.take("e_sum", float)
    choice: dict[int, int] = {}
    while doc.peek()[:1] == ["choice"]:
        layer, value = doc.take("choice", "layer", int, "value", int)
        if layer in choice:
            raise doc.error(f"layer {layer} chosen twice")
        choice[layer] = value
    frontier = []
    while doc.peek():
        frontier.append(tuple(doc.take("frontier", float, float)))
    return LayerPlan(
        kind=kind, layers=list(choice), choice=choice, s_sum=s_sum, e_sum=e_sum,
        feasible=feasible, budget=budget, frontier=frontier,
    )
