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
search) or total energy under a sensitivity cap (compression search) by
sweeping the Lagrangian relaxation, whose per-layer argmin structure makes
each sweep point cheap. Small problems are solved exactly by enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import store
from .engine import LayerSnnConfig, RunStats, run_snn, spiking_layer_indices
from .nn import ModelGraph, softmax
from .store import CalibrationCache

DEFAULT_PHI_CANDIDATES = (1, 2, 3, 4)
DEFAULT_RHO_CANDIDATES = (1, 2, 4)

_EXHAUSTIVE_MAX_LAYERS = 8
_EXHAUSTIVE_MAX_CANDIDATES = 4


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


def energy_of(stats: RunStats, model: EnergyModel = EnergyModel()) -> float:
    """Energy of a run under the 1 ms window convention, in Watts."""
    if model.mode == "synop":
        count = float(sum(stats.layer_synops.values()))
    else:
        count = float(stats.total_spikes)
    return count / 1e-3 * model.mu


def kl_divergence(p, q, eps: float = 1e-12):
    """KL(p || q) along the last axis, natural log, probabilities floored at eps."""
    pf = np.maximum(np.asarray(p, dtype=np.float64), eps)
    qf = np.maximum(np.asarray(q, dtype=np.float64), eps)
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
    base = configs[position]
    if kind == "phi":
        out[position] = LayerSnnConfig(v_th=base.v_th, rho=base.rho, phi=int(value))
    else:
        out[position] = LayerSnnConfig(v_th=base.v_th, rho=int(value), phi=base.phi)
    return out


def layer_sensitivity(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    layer: int,
    candidate: int,
    kind: str,
    cache: CalibrationCache,
    timesteps: int,
    energy: EnergyModel = EnergyModel(),
    *,
    membrane_init: float = 0.5,
) -> tuple[float, float]:
    """(S, E) for one layer trying one candidate, others at baseline."""
    cache.check_model(model)
    spiking = spiking_layer_indices(model)
    if layer not in spiking:
        raise ValueError(f"layer {layer} is not a spiking layer")
    if model.class_count != cache.logits.shape[1]:
        raise ValueError(
            f"model emits {model.class_count} classes, cache logits carry {cache.logits.shape[1]}"
        )
    trial = _with_candidate(configs, spiking.index(layer), kind, candidate)
    run = run_snn(model, trial, cache.inputs, timesteps, membrane_init=membrane_init)
    p = softmax(np.asarray(cache.logits, dtype=np.float64), axis=1)
    q = softmax(run.scores, axis=1)
    s = float(np.mean(kl_divergence(p, q)))
    if energy.mode == "synop":
        count = run.stats.layer_synops[layer]
    else:
        count = run.stats.layer_spikes[layer]
    e = float(count) / cache.sample_count / 1e-3 * energy.mu
    return s, e


def build_table(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    cache: CalibrationCache,
    timesteps: int,
    kind: str,
    candidates=None,
    energy: EnergyModel = EnergyModel(),
    *,
    membrane_init: float = 0.5,
) -> SensitivityTable:
    """Measure S and E for every (spiking layer, candidate) pair."""
    if kind not in ("phi", "rho"):
        raise ValueError(f"table kind must be phi or rho, got {kind!r}")
    if candidates is None:
        candidates = DEFAULT_PHI_CANDIDATES if kind == "phi" else DEFAULT_RHO_CANDIDATES
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate set is empty")
    layers = spiking_layer_indices(model)
    table = SensitivityTable(
        kind=kind, layers=layers, candidates=candidates, sample_count=cache.sample_count
    )
    for layer in layers:
        for cand in candidates:
            s, e = layer_sensitivity(
                model, configs, layer, cand, kind, cache, timesteps, energy,
                membrane_init=membrane_init,
            )
            table.s[(layer, cand)] = s
            table.e[(layer, cand)] = e
    return table


def _pareto_filter(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Mutually nondominated subset (minimizing both coordinates)."""
    uniq = sorted(set(points))
    keep: list[tuple[float, float]] = []
    best_second = np.inf
    for a, b in uniq:
        if b < best_second:
            keep.append((a, b))
            best_second = b
    return keep


def _plan_sums(table: SensitivityTable, choice: dict[int, int]) -> tuple[float, float]:
    s = sum(table.s[(i, choice[i])] for i in table.layers)
    e = sum(table.e[(i, choice[i])] for i in table.layers)
    return float(s), float(e)


def _select_best(table, plans, cap, minimize_s):
    """Pick the feasible plan with the best objective; ties go to lower energy."""
    best_choice = None
    best_key = None
    cheapest_choice = None
    cheapest_key = None
    for choice in plans:
        s, e = _plan_sums(table, choice)
        constrained = e if minimize_s else s
        objective = s if minimize_s else e
        # tie-break second slot: energy when minimizing S, sensitivity otherwise
        key = (objective, e if minimize_s else s)
        ckey = (constrained, objective)
        if cheapest_key is None or ckey < cheapest_key:
            cheapest_key = ckey
            cheapest_choice = choice
        if constrained <= cap and (best_key is None or key < best_key):
            best_key = key
            best_choice = choice
    return best_choice, cheapest_choice


def _sweep_lambdas(table: SensitivityTable, minimize_s: bool) -> list[float]:
    """Log grid plus every per-layer breakpoint, so each supported plan is visited."""
    lams = {0.0}
    lams.update(np.logspace(-6.0, 6.0, 61).tolist())
    crit: list[float] = []
    for layer in table.layers:
        for a, b in itertools.combinations(table.candidates, 2):
            sa, ea = table.s[(layer, a)], table.e[(layer, a)]
            sb, eb = table.s[(layer, b)], table.e[(layer, b)]
            num, den = (sa - sb, eb - ea) if minimize_s else (ea - eb, sb - sa)
            if den != 0.0:
                lam = num / den
                if lam > 0.0 and np.isfinite(lam):
                    crit.append(lam)
    crit = sorted(set(crit))
    lams.update(crit)
    for x, y in zip(crit, crit[1:]):
        lams.add(0.5 * (x + y))
    if crit:
        lams.add(crit[0] * 0.5)
        lams.add(crit[-1] * 2.0)
    return sorted(lams)


def _sweep_plans(table: SensitivityTable, minimize_s: bool) -> list[dict[int, int]]:
    plans = []
    seen = set()
    for lam in _sweep_lambdas(table, minimize_s):
        choice: dict[int, int] = {}
        for layer in table.layers:
            best_cand, best_key = None, None
            for cand in table.candidates:
                s, e = table.s[(layer, cand)], table.e[(layer, cand)]
                cost = s + lam * e if minimize_s else e + lam * s
                key = (cost, e, s)  # ties toward lower energy
                if best_key is None or key < best_key:
                    best_key, best_cand = key, cand
            choice[layer] = best_cand
        sig = tuple(choice[i] for i in table.layers)
        if sig not in seen:
            seen.add(sig)
            plans.append(choice)
    return plans


def _exhaustive_plans(table: SensitivityTable) -> list[dict[int, int]]:
    return [
        dict(zip(table.layers, combo))
        for combo in itertools.product(table.candidates, repeat=len(table.layers))
    ]


def pareto_search(
    table: SensitivityTable, budget: SearchBudget, method: str = "auto"
) -> LayerPlan:
    """Choose one candidate per layer under the budget.

    ``energy_cap`` minimizes total sensitivity subject to total energy within
    the cap; ``sensitivity_cap`` swaps the roles. An infeasible budget returns
    ``feasible=False`` carrying the cheapest plan available instead of raising.
    """
    if method == "auto":
        small = (
            len(table.layers) <= _EXHAUSTIVE_MAX_LAYERS
            and len(table.candidates) <= _EXHAUSTIVE_MAX_CANDIDATES
        )
        method = "exhaustive" if small else "sweep"
    if method not in ("sweep", "exhaustive"):
        raise ValueError(f"unknown search method {method!r}")
    minimize_s = budget.kind == "energy_cap"
    plans = (
        _exhaustive_plans(table) if method == "exhaustive" else _sweep_plans(table, minimize_s)
    )
    best, cheapest = _select_best(table, plans, budget.cap, minimize_s)
    frontier = _pareto_filter([_plan_sums(table, c) for c in plans])
    choice = best if best is not None else cheapest
    s, e = _plan_sums(table, choice)
    return LayerPlan(
        kind=table.kind,
        layers=list(table.layers),
        choice=dict(choice),
        s_sum=s,
        e_sum=e,
        feasible=best is not None,
        budget=budget,
        frontier=frontier,
    )


def apply_plan(configs: list[LayerSnnConfig], plan: LayerPlan) -> list[LayerSnnConfig]:
    """New config list with the plan's knob applied; thresholds untouched by phi."""
    if len(configs) != len(plan.layers):
        raise ValueError(
            f"plan covers {len(plan.layers)} layers, configs cover {len(configs)}"
        )
    out = []
    for pos, layer in enumerate(plan.layers):
        base = configs[pos]
        value = int(plan.choice[layer])
        if plan.kind == "phi":
            out.append(LayerSnnConfig(v_th=base.v_th, rho=base.rho, phi=value))
        else:
            out.append(LayerSnnConfig(v_th=base.v_th, rho=value, phi=base.phi))
    return out


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


def table_from_csv(path) -> SensitivityTable:
    """Read a table; its rows must cover every (layer, candidate) pair once."""
    doc = store.read_lines(path, _TABLE_HEADER, sep=",")
    s: dict[tuple[int, int], float] = {}
    e: dict[tuple[int, int], float] = {}
    kind_n = None
    while doc.peek():
        layer, cand, kind, s_val, e_val, n = doc.take(int, int, str, float, float, int)
        if (layer, cand) in s:
            raise doc.error(f"layer {layer} candidate {cand} appears twice")
        if kind_n not in (None, (kind, n)):
            raise doc.error(f"kind and N differ from the first row's {kind_n}")
        kind_n = (kind, n)
        s[(layer, cand)], e[(layer, cand)] = s_val, e_val
    layers = list(dict.fromkeys(layer for layer, _ in s))
    candidates = list(dict.fromkeys(cand for _, cand in s))
    if not s or len(s) != len(layers) * len(candidates):
        raise doc.error("rows do not cover every (layer, candidate) pair")
    with doc.check():
        table = SensitivityTable(
            kind=kind_n[0], layers=layers, candidates=candidates, sample_count=kind_n[1]
        )
    table.s, table.e = s, e
    return table


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
