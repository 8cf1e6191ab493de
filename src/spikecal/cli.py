"""Command line pipeline: train, convert, search, fit-exit, eval, ablate, report.

Configuration comes from an optional JSON file (``--config``) merged over
defaults, with individual flags winning over both, and is checked once when
read. Every artifact is written atomically (``store.write_atomic``) and
contains no timestamps, so a rerun with the same seed is byte-identical.

Exit codes: 0 success, 1 user error (bad paths, malformed config, malformed or
mismatched artifacts, an ``energy.mu`` that makes an energy overflow), 2
internal invariant violation, which includes any other ``ValueError`` a
stage raises on settings and inputs that passed the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field, is_dataclass, replace

import numpy as np

from . import calibrate, early_exit, engine, nn, search, store, train
from .search import EnergyModel

ACCURACY_CURVE_TIMESTEPS = (1, 2, 4, 8, 16, 32)


class UserError(Exception):
    """Bad inputs: missing files, malformed config, impossible requests."""


# numpy's words for a shape it cannot index, raised before it allocates
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")
# the settings that size a stage's arrays
_MEMORY_KEYS = ("timesteps", "t_max", "calib_samples", "grid_size", "dataset.n",
                "dataset.eval_n", "dataset.dim", "dataset.classes", "model.hidden",
                "model.channels")


@contextlib.contextmanager
def _stage(name: str):
    """Tag expected failures with the pipeline stage that raised them."""
    try:
        yield
    except UserError:
        raise
    except (
        store.StoreError, train.TrainingDivergedError, search.EnergyOverflowError, OSError
    ) as err:
        raise UserError(f"[{name}] {err}") from err
    except (MemoryError, ValueError) as err:
        if isinstance(err, ValueError) and not any(m in str(err) for m in _TOO_BIG):
            raise
        raise UserError(f"[{name}] out of memory ({err or type(err).__name__}); lower "
                        f"the size settings: {', '.join(_MEMORY_KEYS)}") from err


# ---------------------------------------------------------------------------
# configuration

@dataclass
class DatasetConfig:
    kind: str = "blobs"
    n: int = 2000
    eval_n: int = 1000
    dim: list[int] = field(default_factory=lambda: [64])
    classes: int = 4
    separation: float = 8.0
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_eval_images: str | None = None
    idx_eval_labels: str | None = None
    csv_path: str | None = None
    csv_eval_path: str | None = None


@dataclass
class ModelConfig:
    arch: str = "mlp"
    hidden: list[int] = field(default_factory=lambda: [128, 64])
    channels: list[int] = field(default_factory=lambda: [4, 8])


@dataclass
class TrainSettings:
    epochs: int = 20
    lr: float = 0.05
    batch_size: int = 64


@dataclass
class SearchSettings:
    phi_candidates: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    rho_candidates: list[int] = field(default_factory=lambda: [1, 2, 4])
    e_target: float | str = "auto"
    s_target: float | str = "auto"
    s_target_slack: float = 2.0


@dataclass
class ExitSettings:
    alpha_base: float = 0.7
    beta: float = 0.2
    delta: float = 1.0


@dataclass
class RunConfig:
    out_dir: str = "runs/out"
    seed: int = 7
    timesteps: int = 8
    t_max: int = 8
    calib_samples: int = 512
    grid_size: int = 64
    membrane_init: float = engine.DEFAULT_MEMBRANE_INIT
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    search: SearchSettings = field(default_factory=SearchSettings)
    energy: EnergyModel = field(default_factory=EnergyModel)
    exit: ExitSettings = field(default_factory=ExitSettings)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a config field's type; a bool is no number,
    and a float must be finite (JSON readers accept ``NaN`` and ``Infinity``)."""
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    if hint is type(None):
        return value is None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    return isinstance(value, hint)


def _fill(cls, data: dict, where: str):
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise UserError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    for key, value in data.items():
        hint = hints[key]
        if not _fits(value, hint):
            expected = "a finite float" if hint is float else (
                hint.__name__ if isinstance(hint, type) else hint
            )
            raise UserError(f"config key {key!r} in {where} must be {expected}, got {value!r}")
    try:
        return cls(**data)
    except ValueError as err:  # a section that checks itself, such as EnergyModel
        raise UserError(f"config section {where}: {err}") from None


# Every value a stage would otherwise reject late or crash on, as (keys,
# test, what the test asks for). A key is "section.key", or a bare key at
# the top level. Integers stop at store.INT_MAX, the largest an artifact
# holds. A size below it can still be too large for numpy to allocate;
# ``_stage`` turns that into a user error. Training steps by np.float32(lr),
# so lr must round to a positive, finite float32.
_F32_MAX = float(np.finfo(np.float32).max)
_LR_RANGE = (float(np.finfo(np.float32).smallest_subnormal), _F32_MAX)
_SIZES = ("timesteps", "t_max", "calib_samples", "grid_size", "dataset.n", "dataset.eval_n",
          "train.epochs", "train.batch_size")
_BOUNDS = (
    (_SIZES, lambda v: v >= 1, "at least 1"),
    (("seed",), lambda v: v >= 0, "at least 0"),
    (("dataset.kind",), lambda v: v in ("blobs", "rings", "idx", "csv"),
     "one of blobs, rings, idx, csv"),
    (("dataset.dim",), lambda v: v and min(v) >= 1, "a non-empty list of sizes, each at least 1"),
    (("dataset.classes",), lambda v: v >= 2, "at least 2"),
    # the blobs are float32: a larger gap overflows them to inf
    (("dataset.separation",), lambda v: 0 <= v <= _F32_MAX,
     f"from 0 to {_F32_MAX}, the largest float32"),
    (("seed", "dataset.classes", *_SIZES), lambda v: v <= store.INT_MAX,
     f"at most {store.INT_MAX}"),
    (("model.arch",), lambda v: v in ("mlp", "cnn"), "mlp or cnn"),
    (("train.lr",), lambda v: v > 0, "positive"),
    (("train.lr",), lambda v: _LR_RANGE[0] <= v <= _LR_RANGE[1],
     "from {} to {}, the positive float32 range".format(*_LR_RANGE)),
    (("search.phi_candidates", "search.rho_candidates"),
     lambda v: v and min(v) >= 1 and len(set(v)) == len(v),
     "a non-empty list of distinct values, each at least 1"),
    (("dataset.dim", "search.phi_candidates", "search.rho_candidates"),
     lambda v: max(v) <= store.INT_MAX, f"a list of values each at most {store.INT_MAX}"),
    (("search.e_target", "search.s_target"),
     lambda v: v == "auto" or not isinstance(v, str) and v >= 0, "'auto' or at least 0"),
    (("search.s_target_slack",), lambda v: v >= 0, "at least 0"),
    (("exit.delta",), lambda v: v > 0, "positive"),
    # alpha_base + beta * exp(...) overflows float64 near its maximum
    (("exit.alpha_base", "exit.beta"), lambda v: abs(v) <= _F32_MAX,
     f"at most {_F32_MAX} in magnitude, the largest float32"),
)


def config_from_dict(data: dict) -> RunConfig:
    """The run's settings from a JSON object, every type and bound checked."""
    data = dict(data)
    kwargs = {}
    for name, cls in typing.get_type_hints(RunConfig).items():
        if is_dataclass(cls) and name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise UserError(f"config section {name!r} must be an object")
            kwargs[name] = _fill(cls, section, name)
    cfg = _fill(RunConfig, {**data, **kwargs}, "top level")
    for keys, ok, bound in _BOUNDS:
        for path in keys:
            section, _, key = path.rpartition(".")
            value = getattr(getattr(cfg, section) if section else cfg, key)
            if not ok(value):
                where = section or "top level"
                raise UserError(f"config key {key!r} in {where} must be {bound}, got {value!r}")
    return cfg


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise UserError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise UserError("config file must hold a JSON object")
    return data


def load_config(path) -> RunConfig:
    return config_from_dict(_read_json(path))


def _parse_target(raw: str, flag: str) -> float | str:
    if raw == "auto":
        return "auto"
    try:
        return float(raw)
    except ValueError:
        raise UserError(f"{flag} must be a number or 'auto', got {raw!r}") from None


# The flags every stage takes: (flag, section, key, parser, help). A parser
# is an argparse type or a tuple of choices; section "" is the top level.
_FLAGS = (
    ("--seed", "", "seed", int, "global RNG seed"),
    ("--out", "", "out_dir", str, "run directory for artifacts"),
    ("--timesteps", "", "timesteps", int, "simulation timesteps T"),
    ("--mu", "energy", "mu", float, "energy per unit spike, Joules"),
    ("--energy-mode", "energy", "mode", ("spike_count", "synop"), "energy counting mode"),
    ("--e-target", "search", "e_target", lambda raw: _parse_target(raw, "--e-target"),
     "energy cap for search-phi (number or 'auto')"),
    ("--s-target", "search", "s_target", lambda raw: _parse_target(raw, "--s-target"),
     "sensitivity cap for search-rho (number or 'auto')"),
    ("--alpha-base", "exit", "alpha_base", float, "exit boundary floor"),
    ("--beta", "exit", "beta", float, "exit boundary amplitude"),
    ("--delta", "exit", "delta", float, "exit boundary entropy scale"),
)


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file (or the defaults) with every given flag written over it."""
    data = _read_json(args.config) if args.config else {}
    for flag, section, key, _, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            target = data.setdefault(section, {}) if section else data
            if isinstance(target, dict):  # else config_from_dict says why
                target[key] = value
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# artifacts

class Artifacts:
    """Canonical file names inside the run directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    model = property(lambda self: self.path("model.snnc"))
    calibrated = property(lambda self: self.path("model_calibrated.snnc"))
    cache = property(lambda self: self.path("calibration_cache.snnx"))
    calibration_report = property(lambda self: self.path("calibration_report.txt"))
    configs_base = property(lambda self: self.path("snn_configs_base.txt"))
    configs_phi = property(lambda self: self.path("snn_configs_phi.txt"))
    configs_full = property(lambda self: self.path("snn_configs_full.txt"))
    sensitivity_phi = property(lambda self: self.path("sensitivity_phi.csv"))
    sensitivity_rho = property(lambda self: self.path("sensitivity_rho.csv"))
    plan_phi = property(lambda self: self.path("plan_phi.txt"))
    plan_rho = property(lambda self: self.path("plan_rho.txt"))
    policy = property(lambda self: self.path("exit_policy.txt"))
    train_report = property(lambda self: self.path("train_report.csv"))
    eval_report = property(lambda self: self.path("eval.csv"))
    exit_trace = property(lambda self: self.path("exit_trace.csv"))
    spike_trace = property(lambda self: self.path("spike_trace.csv"))
    ablation = property(lambda self: self.path("ablation.csv"))
    report_dir = property(lambda self: self.path("report"))
    accuracy_curve = property(lambda self: os.path.join(self.report_dir, "accuracy_vs_t.csv"))
    frontier = property(lambda self: os.path.join(self.report_dir, "frontier.csv"))
    exit_histogram = property(lambda self: os.path.join(self.report_dir, "exit_histogram.csv"))


def _require(paths: dict[str, str], stage: str) -> None:
    missing = [f"{name} ({p})" for name, p in paths.items() if not os.path.exists(p)]
    if missing:
        raise UserError(f"[{stage}] missing artifacts: " + ", ".join(missing))


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _load_dataset(cfg: RunConfig, split: str) -> store.DatasetHandle:
    """The ``split`` samples; a malformed file or an out-of-range label is a user error."""
    ds = cfg.dataset
    if ds.kind in ("blobs", "rings"):
        n = ds.n if split == "train" else ds.eval_n
        seed = cfg.seed if split == "train" else cfg.seed + 1
        dim = ds.dim[0] if len(ds.dim) == 1 else tuple(ds.dim)
        return store.make_synthetic(
            ds.kind, n, seed, classes=ds.classes, dim=dim,
            separation=ds.separation, structure_seed=cfg.seed,
        )
    if ds.kind == "idx":
        if split == "train":
            paths = (ds.idx_images, ds.idx_labels)
        else:
            paths = (ds.idx_eval_images or ds.idx_images, ds.idx_eval_labels or ds.idx_labels)
        if paths[0] is None or paths[1] is None:
            raise UserError("dataset.kind 'idx' needs idx_images and idx_labels paths")
        source, load = paths[1], lambda: store.load_idx(*paths)
    else:
        path = ds.csv_path if split == "train" else (ds.csv_eval_path or ds.csv_path)
        if path is None:
            raise UserError("dataset.kind 'csv' needs csv_path")
        source, load = path, lambda: store.load_csv(path, tuple(ds.dim))
    try:
        data = load()
    except ValueError as err:  # np.loadtxt reports a malformed row this way
        raise UserError(f"{source}: {err}") from None
    outside = (data.labels < 0) | (data.labels >= ds.classes)
    if outside.any():
        label = data.labels[outside][0]
        raise UserError(f"{source}: label {label} outside 0..{ds.classes - 1} (dataset.classes)")
    return data


def _build_model(cfg: RunConfig, dataset: store.DatasetHandle) -> nn.ModelGraph:
    shape = tuple(dataset.images.shape[1:])
    if cfg.model.arch == "cnn" and len(shape) != 3:
        raise UserError(f"cnn needs (C, H, W) inputs, dataset gives {shape}")
    try:
        if cfg.model.arch == "mlp":
            flat = int(np.prod(shape))
            return nn.build_mlp(flat, cfg.model.hidden, cfg.dataset.classes, seed=cfg.seed)
        return nn.build_cnn(shape, cfg.model.channels, cfg.dataset.classes, seed=cfg.seed)
    except ValueError as err:  # a width or input shape the builders cannot use
        raise UserError(str(err)) from None


def _flatten_if_needed(model: nn.ModelGraph, images: np.ndarray) -> np.ndarray:
    """``images`` in the model's input shape; other sample shapes are a user error."""
    if len(model.input_shape) == 1 and images.ndim > 2:
        images = images.reshape(len(images), -1)
    if images.shape[1:] != tuple(model.input_shape):
        raise UserError(
            f"dataset samples have shape {images.shape[1:]}, the model takes "
            f"{tuple(model.input_shape)}: was it trained with another dataset.dim or file?"
        )
    return images


def _load_configs(path: str, model: nn.ModelGraph) -> list[engine.LayerSnnConfig]:
    """Configs from ``path``, whose layer labels must be the model's spiking layers."""
    with _stage("load-configs"):
        configs, layers = engine.load_configs(path)
    spiking = engine.spiking_layer_indices(model)
    if layers != spiking:
        raise UserError(
            f"[load-configs] {path} configures layers {layers}, "
            f"but the model's spiking layers are {spiking}"
        )
    return configs


def _best_configs(art: Artifacts, model: nn.ModelGraph) -> tuple[list[engine.LayerSnnConfig], str]:
    """Most derived config file present: full > phi > base."""
    for path in (art.configs_full, art.configs_phi, art.configs_base):
        if os.path.exists(path):
            return _load_configs(path, model), path
    raise UserError(
        "no neuron config file found; run 'convert' first "
        f"(expected {art.configs_base})"
    )


def _model_inputs(cfg: RunConfig, model: nn.ModelGraph, split: str):
    """Images shaped for ``model`` and labels of the ``split`` samples."""
    if model.class_count != cfg.dataset.classes:
        raise UserError(
            f"the model has {model.class_count} classes, dataset.classes is "
            f"{cfg.dataset.classes}: was it trained with another dataset.classes?"
        )
    data = _load_dataset(cfg, split)
    return _flatten_if_needed(model, data.images), np.asarray(data.labels)


def _per_input(stats: engine.RunStats, predicted, labels, em: EnergyModel):
    """Accuracy, spikes per input and energy per input of one run's accounting."""
    n = len(labels)
    acc = float(np.mean(predicted == labels))
    return acc, stats.total_spikes / n, search.energy_of(stats, em) / n


def _fixed_eval(model, run: engine.SnnRun, timesteps: int, labels, em):
    """``_per_input`` of ``run`` stopped after ``timesteps``."""
    stats = engine.stats_at(model, run.step_spikes, timesteps - 1)
    return _per_input(stats, np.argmax(run.step_scores[timesteps - 1], axis=1), labels, em)


def _fit_policy(cfg: RunConfig, model, configs, cache, t_max: int) -> early_exit.ExitPolicy:
    """An exit policy fitted on the calibration inputs with the config's exit settings."""
    return early_exit.fit_exit_policy(
        model, configs, cache, t_max,
        alpha_base=cfg.exit.alpha_base, beta=cfg.exit.beta, delta=cfg.exit.delta,
        membrane_init=cfg.membrane_init,
    )


def _load_policy(cfg: RunConfig, path: str, stage: str) -> early_exit.ExitPolicy:
    """The exit policy at ``path``, which must gate the config's ``t_max`` steps."""
    with _stage(stage):
        policy = early_exit.load_policy(path)
    if policy.t_max != cfg.t_max:
        raise UserError(
            f"[{stage}] {path} is a policy for t_max {policy.t_max}, but the config's "
            f"t_max is {cfg.t_max}: was it fitted for another run?"
        )
    return policy


# ---------------------------------------------------------------------------
# commands

def cmd_train(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    with _stage("load-dataset"):
        dataset = _load_dataset(cfg, "train")
    with _stage("build-model"):
        model = _build_model(cfg, dataset)
        dataset = store.DatasetHandle(_flatten_if_needed(model, dataset.images), dataset.labels)
    with _stage("load-dataset"):
        eval_images, eval_labels = _model_inputs(cfg, model, "eval")
    with _stage("train"):
        trained = train.train_reference(
            model, dataset, cfg.train.epochs, cfg.train.lr, cfg.seed,
            batch_size=cfg.train.batch_size,
        )
        train_acc = train.accuracy(trained, dataset.images, dataset.labels)
        eval_acc = train.accuracy(trained, eval_images, eval_labels)
    with _stage("save-model"):
        store.save_model(trained, art.model)
        store.write_atomic(
            art.train_report,
            ["metric,value", f"train_accuracy,{train_acc!r}", f"eval_accuracy,{eval_acc!r}"],
        )
    print(f"trained model -> {art.model}")
    print(f"train accuracy {train_acc:.4f}, eval accuracy {eval_acc:.4f}")
    return 0


def cmd_convert(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    _require({"model": art.model}, "convert")
    with _stage("load-model"):
        model = store.load_model(art.model)
    with _stage("load-dataset"):
        dataset = store.DatasetHandle(*_model_inputs(cfg, model, "train"))
    with _stage("calibration-cache"):
        samples = min(cfg.calib_samples, len(dataset))
        cache = store.build_calibration_cache(model, dataset, samples, cfg.seed)
        store.save_cache(cache, art.cache)
    with _stage("fit-thresholds"):
        walk = calibrate.walk_thresholds(model, cache, cfg.timesteps, cfg.grid_size)
    fits = []

    def fitted():
        """Each layer's config as bias calibration reaches it; the next
        layer's fit meanwhile runs on the walk's helper thread."""
        while True:
            with _stage("fit-thresholds"):
                fit = next(walk, None)
            if fit is None:
                return
            fits.append(fit)
            yield engine.LayerSnnConfig(v_th=fit.v_th)

    with contextlib.closing(walk), _stage("calibrate-biases"):
        calibrated, trains = calibrate.calibrate_biases(
            model, fitted(), cache, cfg.timesteps, membrane_init=cfg.membrane_init
        )
        configs = calibrate.configs_from_fits(fits)
        store.save_model(calibrated, art.calibrated)
        spiking = engine.spiking_layer_indices(calibrated)
        engine.save_configs(configs, spiking, art.configs_base)
    with _stage("measure-errors"):
        breakdowns = calibrate.measure_unevenness(cache.taps, trains, configs, cfg.timesteps)
        calibrate.write_calibration_report(art.calibration_report, fits, breakdowns)
    print(f"calibrated model -> {art.calibrated}")
    for fit in fits:
        flag = " (degenerate)" if fit.degenerate else ""
        print(f"layer {fit.layer}: v_th {fit.v_th:.6g}{flag}")
    return 0


def _load_search_inputs(cfg: RunConfig, art: Artifacts, stage: str):
    _require({"calibrated model": art.calibrated, "calibration cache": art.cache}, stage)
    with _stage(stage):
        model = store.load_model(art.calibrated)
        cache = store.load_cache(art.cache)
        cache.check_model(model)
    return model, cache


# How the searches differ: configs read, their name, configs written, budget kind, label.
_SEARCHES = {
    "phi": ("configs_base", "base configs", "configs_phi", "energy_cap", "burst"),
    "rho": ("configs_phi", "burst-plan configs", "configs_full", "sensitivity_cap", "compression"),
}


def cmd_search(cfg: RunConfig, kind: str) -> int:
    """``search-phi`` or ``search-rho``: a sensitivity table, a budget, then a plan."""
    source, source_name, dest, budget_kind, label = _SEARCHES[kind]
    art, stage = Artifacts(cfg.out_dir), f"search-{kind}"
    model, cache = _load_search_inputs(cfg, art, stage)
    _require({source_name: getattr(art, source)}, stage)
    configs = _load_configs(getattr(art, source), model)
    candidates = getattr(cfg.search, f"{kind}_candidates")
    with _stage("sensitivity-table"):
        table = search.build_table(
            model, configs, cache, cfg.timesteps, kind, candidates=candidates,
            energy=cfg.energy, membrane_init=cfg.membrane_init,
        )
        search.table_to_csv(table, getattr(art, f"sensitivity_{kind}"))
    with _stage("budget"):
        given = cfg.search.e_target if kind == "phi" else cfg.search.s_target
        if given != "auto":
            cap = float(given)
        elif kind == "phi":  # the measured cost of every layer at the second candidate
            uniform = [replace(c, phi=candidates[min(1, len(candidates) - 1)]) for c in configs]
            run = engine.run_snn(
                model, uniform, cache.inputs, cfg.timesteps, membrane_init=cfg.membrane_init
            )
            cap = search.energy_of(run.stats, cfg.energy) / cache.sample_count
        else:  # slack times the summed sensitivity at rho 1, else at the first candidate
            ref = 1 if 1 in candidates else candidates[0]
            cap = cfg.search.s_target_slack * sum(table.s[(layer, ref)] for layer in table.layers)
        budget = search.SearchBudget(budget_kind, cap)
    with _stage("pareto-search"):
        plan = search.pareto_search(table, budget)
        search.save_plan(plan, getattr(art, f"plan_{kind}"))
        planned = search.apply_plan(configs, plan)
        engine.save_configs(planned, plan.layers, getattr(art, dest))
    feas = "feasible" if plan.feasible else "INFEASIBLE (cheapest plan written)"
    print(f"{label} plan ({feas}): " + " ".join(
        f"layer{l}->{kind}{plan.choice[l]}" for l in plan.layers
    ))
    print(f"plan S={plan.s_sum:.6g} E={plan.e_sum:.6g} cap={budget.cap:.6g}")
    return 0


def cmd_fit_exit(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    model, cache = _load_search_inputs(cfg, art, "fit-exit")
    configs, used = _best_configs(art, model)
    with _stage("fit-exit"):
        policy = _fit_policy(cfg, model, configs, cache, cfg.t_max)
        early_exit.save_policy(policy, art.policy)
    bounds = policy.boundaries()
    print(f"exit policy (configs: {os.path.basename(used)}) -> {art.policy}")
    print("boundaries: " + " ".join(f"{b:.4f}" for b in bounds))
    return 0


def cmd_eval(cfg: RunConfig, trace: bool = False) -> int:
    art = Artifacts(cfg.out_dir)
    _require({"calibrated model": art.calibrated}, "eval")
    with _stage("eval-setup"):
        model = store.load_model(art.calibrated)
        configs, used = _best_configs(art, model)
        images, labels = _model_inputs(cfg, model, "eval")
    policy = None
    if os.path.exists(art.policy):
        policy = _load_policy(cfg, art.policy, "eval-adaptive")
    rows = []
    with _stage("eval-fixed"):
        # one run answers the fixed horizon and the exit gate alike
        horizon = cfg.timesteps if policy is None else max(cfg.timesteps, policy.t_max)
        go = engine._eval_run(model, configs, images, horizon, cfg.membrane_init)
        first = images[:1].copy() if trace else None  # a view would keep the batch
        del images  # an MLP's run keeps only the current it makes of the images
        run = go()
        del go  # the lanes' workspaces
        acc, spikes, energy = _fixed_eval(model, run, cfg.timesteps, labels, cfg.energy)
        rows.append(
            f"fixed,{cfg.timesteps},{acc!r},{float(cfg.timesteps)!r},{spikes!r},{energy!r}"
        )
    if trace:
        with _stage("spike-trace"):
            one = engine.run_snn(
                model, configs, first, cfg.timesteps,
                membrane_init=cfg.membrane_init, record_trains=True,
            )
            engine.dump_trace(one, art.spike_trace)
    if policy is not None:
        with _stage("eval-adaptive"):
            adaptive = early_exit.apply_gate(model, run, policy, labels)
            acc, spikes, energy = _per_input(adaptive.stats, adaptive.predicted, labels, cfg.energy)
            rows.append(
                f"adaptive,{policy.t_max},{acc!r},{adaptive.mean_exit_t!r},{spikes!r},{energy!r}"
            )
            early_exit.write_exit_trace(art.exit_trace, adaptive)
    with _stage("write-eval"):
        store.write_atomic(
            art.eval_report,
            ["mode,timesteps,accuracy,mean_exit_t,spikes_per_input,energy", *rows],
        )
    print(f"eval (configs: {os.path.basename(used)}) -> {art.eval_report}")
    for row in rows:
        print("  " + row)
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    """The fixed row of each config set, then the exit row of each but the baseline.

    Each config set makes one eval-set run; its exit variant gates that run
    with a policy fitted at ``timesteps``, like for like with the fixed row.
    """
    art = Artifacts(cfg.out_dir)
    _require({"calibrated model": art.calibrated, "base configs": art.configs_base,
              "burst configs": art.configs_phi, "full configs": art.configs_full,
              "calibration cache": art.cache}, "ablate")
    T, em = cfg.timesteps, cfg.energy
    with _stage("ablate"):
        model = store.load_model(art.calibrated)
        paths = (("baseline", art.configs_base), ("burst", art.configs_phi),
                 ("burst+compress", art.configs_full))
        variants = [(name, _load_configs(path, model)) for name, path in paths]
        cache = store.load_cache(art.cache)
        images, labels = _model_inputs(cfg, model, "eval")
        cache.check_model(model)  # before any simulation or thread starts
        runs = _ablation_runs(cfg, model, variants, cache, images)
        del images  # an MLP's runs keep only the current they make of the images
        fixed, gated = [], []  # (variant, mean_t, accuracy, spikes, energy)
        for name, run, policy in runs:
            fixed.append((name, float(T), *_fixed_eval(model, run, T, labels, em)))
            if policy is not None:
                tr = early_exit.apply_gate(model, run, policy, labels)
                acc, spikes, energy = _per_input(tr.stats, tr.predicted, labels, em)
                gated.append((f"{name}+exit", tr.mean_exit_t, acc, spikes, energy))
            del run
        base = fixed[0][4] or math.nan  # a baseline that spends nothing: nan changes
        rows = []
        for name, mean_t, acc, spikes, energy in fixed + gated:
            delta = 0.0 if name == "baseline" else (energy - base) / base * 100.0
            rows.append(f"{name},{acc!r},{energy!r},{mean_t!r},{spikes!r},{delta!r}")
        store.write_atomic(
            art.ablation,
            ["variant,accuracy,energy,mean_t,spikes_per_input,energy_delta_pct", *rows],
        )
    print(f"ablation -> {art.ablation}")
    for row in rows:
        print("  " + row)
    return 0


def _ablation_runs(cfg: RunConfig, model, variants, cache, images):
    """Yield ``(name, eval-set run, exit policy)`` for each config set in
    ``variants``, with no policy for the baseline; each policy is fitted
    on the calibration inputs at ``timesteps``.

    An MLP's five runs go through the layer-major runner serially, each
    layer all T steps at a time in one workspace per lane
    (``engine._whole_runs``): the three eval-set runs on the calling
    thread while one helper thread makes the two policy-fit runs. (One run
    split over two lanes, as ``eval`` and ``report`` make theirs, is
    ``engine._eval_run``.) A model with any other feeder (every CNN) runs
    serially through ``run_snn``, fitting each policy before its eval-set
    run, so that at most one simulation is held at once.
    """
    T, init = cfg.timesteps, cfg.membrane_init
    if not all(map(engine._single_dense, engine._check_run(model, variants[0][1], T).feeds[1:])):
        for name, configs in variants:
            policy = None if name == "baseline" else _fit_policy(cfg, model, configs, cache, T)
            yield name, engine.run_snn(model, configs, images, T, membrane_init=init), policy
        return
    plans = [engine._check_run(model, configs, T) for _, configs in variants]
    # every record and each lane's workspace, sized for that lane's own
    # inputs, before the helper starts: workspaces sized for the eval set on
    # both lanes, sharing one job list, cost 10% more peak RSS
    make_eval, scores, spikes = engine._whole_runs(model, plans, images, T, init, spikes=True)
    del images
    make_fits, fit_scores, _ = engine._whole_runs(model, plans[1:], cache.inputs, T, init,
                                                  spikes=False)
    with engine._on_helper(make_fits, "spikecal-ablate"):
        make_eval()
    del make_eval, make_fits  # the workspaces go before the rows are formed
    policies = [None, *(early_exit._policy(s, cfg.exit.alpha_base, cfg.exit.beta, cfg.exit.delta)
                        for s in fit_scores)]
    for (name, _), plan, s, k, policy in zip(variants, plans, scores, spikes, policies):
        yield name, engine._recorded(plan, s, k), policy


def cmd_report(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    expected = {
        "calibrated model": art.calibrated,
        "base configs": art.configs_base,
        "burst plan": art.plan_phi,
        "compression plan": art.plan_rho,
        "exit policy": art.policy,
        "exit trace": art.exit_trace,
    }
    _require(expected, "report")
    with _stage("report-setup"):
        model = store.load_model(art.calibrated)
        configs, _ = _best_configs(art, model)
        images, labels = _model_inputs(cfg, model, "eval")
        spiking = engine.spiking_layer_indices(model)
        policy = _load_policy(cfg, art.policy, "report-setup")
        plans = {}
        for kind, path in (("phi", art.plan_phi), ("rho", art.plan_rho)):
            plan = plans[kind] = search.load_plan(path)
            if (plan.kind, plan.layers) != (kind, spiking):
                raise UserError(
                    f"[report-setup] {path} is a {plan.kind} plan for layers {plan.layers}, "
                    f"but report needs a {kind} plan for the spiking layers {spiking} "
                    f"of {art.calibrated}"
                )
        exits = early_exit.load_exit_steps(art.exit_trace, policy.t_max)
        if len(exits) != len(labels):
            raise UserError(
                f"[report-setup] {art.exit_trace} holds {len(exits)} rows "
                f"for {len(labels)} eval inputs"
            )
    with _stage("accuracy-curve"):
        go = engine._eval_run(model, configs, images, max(ACCURACY_CURVE_TIMESTEPS),
                              cfg.membrane_init)
        del images  # an MLP's run keeps only the current it makes of the images
        run = go()
        del go  # the lanes' workspaces
        rows = []
        for t in ACCURACY_CURVE_TIMESTEPS:
            acc, spikes, energy = _fixed_eval(model, run, t, labels, cfg.energy)
            rows.append(f"{t},{acc!r},{spikes!r},{energy!r}")
        store.write_atomic(
            art.accuracy_curve, ["timesteps,accuracy,spikes_per_input,energy", *rows]
        )
    with _stage("frontier"):
        rows = []
        for kind, plan in plans.items():
            for s, e in sorted(set(plan.frontier)):
                rows.append(f"{kind},{s!r},{e!r}")
        store.write_atomic(art.frontier, ["kind,s_sum,e_sum", *rows])
    with _stage("exit-histogram"):
        rows = [f"{t},{int(np.sum(exits == t))}" for t in range(1, policy.t_max + 1)]
        store.write_atomic(art.exit_histogram, ["exit_t,count", *rows])
    print(f"report bundle -> {art.report_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    for flag, _, _, parser, help in _FLAGS:
        kind = "choices" if isinstance(parser, tuple) else "type"
        shared.add_argument(flag, **{kind: parser}, help=help)

    parser = argparse.ArgumentParser(
        prog="spikecal",
        description="Training-free conversion of small relu nets into spiking nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", parents=[shared], help="train a source net")
    sub.add_parser("convert", parents=[shared], help="fit thresholds and calibrate biases")
    sub.add_parser("search-phi", parents=[shared], help="search per-layer burst caps")
    sub.add_parser("search-rho", parents=[shared], help="search per-layer compression ratios")
    sub.add_parser("fit-exit", parents=[shared], help="fit the early-exit policy")
    evalp = sub.add_parser("eval", parents=[shared], help="evaluate fixed and adaptive runs")
    evalp.add_argument("--trace", action="store_true", help="dump one input's spike trace CSV")
    sub.add_parser("ablate", parents=[shared], help="run the five-way feature ablation")
    sub.add_parser("report", parents=[shared], help="emit plot-ready CSV bundles")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "convert": cmd_convert,
    "search-phi": functools.partial(cmd_search, kind="phi"),
    "search-rho": functools.partial(cmd_search, kind="rho"),
    "fit-exit": cmd_fit_exit,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        # inside the try: the --e-target/--s-target parsers raise UserError
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        if args.command == "eval":
            return cmd_eval(cfg, trace=args.trace)
        return _COMMANDS[args.command](cfg)
    except UserError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - invariant violations exit 2
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
