"""Command line pipeline: train, convert, search, fit-exit, eval, ablate, report.

Configuration comes from an optional JSON file (``--config``) merged over
defaults, with individual flags winning over both. Every artifact is written
atomically (``store.write_atomic``) and contains no timestamps, so a rerun
with the same seed is byte-identical.

Exit codes: 0 success, 1 user error (bad paths, malformed config, malformed or
mismatched artifacts), 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import calibrate, early_exit, engine, nn, search, store, train

ACCURACY_CURVE_TIMESTEPS = (1, 2, 4, 8, 16, 32)


class UserError(Exception):
    """Bad inputs: missing files, malformed config, impossible requests."""


@contextlib.contextmanager
def _stage(name: str):
    """Tag expected failures with the pipeline stage that raised them."""
    try:
        yield
    except UserError:
        raise
    except (store.StoreError, train.TrainingDivergedError, ValueError, OSError) as err:
        raise UserError(f"[{name}] {err}") from err


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
class EnergySettings:
    mu: float = 77e-15
    mode: str = "spike_count"


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
    membrane_init: float = 0.5
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    search: SearchSettings = field(default_factory=SearchSettings)
    energy: EnergySettings = field(default_factory=EnergySettings)
    exit: ExitSettings = field(default_factory=ExitSettings)


_SECTIONS = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "train": TrainSettings,
    "search": SearchSettings,
    "energy": EnergySettings,
    "exit": ExitSettings,
}


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
    return cls(**data)


# The least a run can work with: one step, one sample, one grid point, a
# two-class head. A smaller value would fail deep inside a stage instead.
_MINIMUMS = (
    ("top level", "timesteps", 1),
    ("top level", "t_max", 1),
    ("top level", "calib_samples", 1),
    ("top level", "grid_size", 1),
    ("dataset", "n", 1),
    ("dataset", "eval_n", 1),
    ("dataset", "classes", 2),
    ("train", "batch_size", 1),
)


def _check_minimums(cfg: RunConfig) -> None:
    for where, key, least in _MINIMUMS:
        value = getattr(cfg if where == "top level" else getattr(cfg, where), key)
        if value < least:
            raise UserError(
                f"config key {key!r} in {where} must be at least {least}, got {value!r}"
            )


def config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise UserError(f"config section {name!r} must be an object")
            kwargs[name] = _fill(cls, section, name)
    cfg = _fill(RunConfig, {**data, **kwargs}, "top level")
    _check_minimums(cfg)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise UserError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise UserError("config file must hold a JSON object")
    return config_from_dict(data)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "timesteps", None) is not None:
        cfg.timesteps = args.timesteps
    if getattr(args, "mu", None) is not None:
        cfg.energy.mu = args.mu
    if getattr(args, "energy_mode", None) is not None:
        cfg.energy.mode = args.energy_mode
    if getattr(args, "e_target", None) is not None:
        cfg.search.e_target = _parse_target(args.e_target, "--e-target")
    if getattr(args, "s_target", None) is not None:
        cfg.search.s_target = _parse_target(args.s_target, "--s-target")
    if getattr(args, "alpha_base", None) is not None:
        cfg.exit.alpha_base = args.alpha_base
    if getattr(args, "beta", None) is not None:
        cfg.exit.beta = args.beta
    if getattr(args, "delta", None) is not None:
        cfg.exit.delta = args.delta
    _check_minimums(cfg)
    return cfg


def _parse_target(raw: str, flag: str) -> float | str:
    if raw == "auto":
        return "auto"
    try:
        return float(raw)
    except ValueError:
        raise UserError(f"{flag} must be a number or 'auto', got {raw!r}") from None


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
        return store.load_idx(*paths)
    if ds.kind == "csv":
        path = ds.csv_path if split == "train" else (ds.csv_eval_path or ds.csv_path)
        if path is None:
            raise UserError("dataset.kind 'csv' needs csv_path")
        return store.load_csv(path, tuple(ds.dim))
    raise UserError(f"unknown dataset kind {ds.kind!r}")


def _build_model(cfg: RunConfig, dataset: store.DatasetHandle) -> nn.ModelGraph:
    shape = tuple(dataset.images.shape[1:])
    if cfg.model.arch == "mlp":
        flat = int(np.prod(shape))
        return nn.build_mlp(flat, cfg.model.hidden, cfg.dataset.classes, seed=cfg.seed)
    if cfg.model.arch == "cnn":
        if len(shape) != 3:
            raise UserError(f"cnn needs (C, H, W) inputs, dataset gives {shape}")
        return nn.build_cnn(shape, cfg.model.channels, cfg.dataset.classes, seed=cfg.seed)
    raise UserError(f"unknown model arch {cfg.model.arch!r}")


def _flatten_if_needed(model: nn.ModelGraph, images: np.ndarray) -> np.ndarray:
    if len(model.input_shape) == 1 and images.ndim > 2:
        return images.reshape(len(images), -1)
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


def _energy_model(cfg: RunConfig) -> search.EnergyModel:
    with _stage("energy"):
        return search.EnergyModel(mu=cfg.energy.mu, mode=cfg.energy.mode)


def _eval_set(cfg: RunConfig, model: nn.ModelGraph) -> tuple[np.ndarray, np.ndarray]:
    eval_set = _load_dataset(cfg, "eval")
    return _flatten_if_needed(model, eval_set.images), np.asarray(eval_set.labels)


def _fixed_eval(model, run: engine.SnnRun, timesteps: int, labels, em):
    """Accuracy, spikes and energy per input of ``run`` stopped after ``timesteps``."""
    stats = engine.stats_at(model, run.step_spikes, timesteps - 1)
    acc = float(np.mean(np.argmax(run.step_scores[timesteps - 1], axis=1) == labels))
    return acc, stats.total_spikes / len(labels), search.energy_of(stats, em) / len(labels)


# ---------------------------------------------------------------------------
# commands

def cmd_train(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    with _stage("load-dataset"):
        dataset = _load_dataset(cfg, "train")
        eval_set = _load_dataset(cfg, "eval")
    with _stage("build-model"):
        model = _build_model(cfg, dataset)
        images = _flatten_if_needed(model, dataset.images)
        eval_images = _flatten_if_needed(model, eval_set.images)
        dataset = store.DatasetHandle(images=images, labels=dataset.labels)
        eval_set = store.DatasetHandle(images=eval_images, labels=eval_set.labels)
    with _stage("train"):
        trained = train.train_reference(
            model, dataset, cfg.train.epochs, cfg.train.lr, cfg.seed,
            batch_size=cfg.train.batch_size,
        )
        train_acc = train.accuracy(trained, dataset.images, dataset.labels)
        eval_acc = train.accuracy(trained, eval_set.images, eval_set.labels)
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
        dataset = _load_dataset(cfg, "train")
        images = _flatten_if_needed(model, dataset.images)
        dataset = store.DatasetHandle(images=images, labels=dataset.labels)
    with _stage("calibration-cache"):
        samples = min(cfg.calib_samples, len(dataset))
        cache = store.build_calibration_cache(model, dataset, samples, cfg.seed)
        store.save_cache(cache, art.cache)
    with _stage("fit-thresholds"):
        grid = calibrate.GridSpec(size=cfg.grid_size)
        fits = calibrate.fit_all_thresholds(model, cache, cfg.timesteps, phi=1, grid=grid)
        configs = calibrate.configs_from_fits(fits)
    with _stage("calibrate-biases"):
        calibrated = calibrate.calibrate_biases(
            model, configs, cache, cfg.timesteps, membrane_init=cfg.membrane_init
        )
        store.save_model(calibrated, art.calibrated)
        spiking = engine.spiking_layer_indices(calibrated)
        engine.save_configs(configs, spiking, art.configs_base)
    with _stage("measure-errors"):
        metrics = calibrate.measure_unevenness(
            calibrated, configs, cache, cfg.timesteps, membrane_init=cfg.membrane_init
        )
        calibrate.write_calibration_report(art.calibration_report, fits, metrics)
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


def cmd_search_phi(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    model, cache = _load_search_inputs(cfg, art, "search-phi")
    _require({"base configs": art.configs_base}, "search-phi")
    configs = _load_configs(art.configs_base, model)
    em = _energy_model(cfg)
    with _stage("sensitivity-table"):
        table = search.build_table(
            model, configs, cache, cfg.timesteps, "phi",
            candidates=cfg.search.phi_candidates, energy=em,
            membrane_init=cfg.membrane_init,
        )
        search.table_to_csv(table, art.sensitivity_phi)
    with _stage("budget"):
        if cfg.search.e_target == "auto":
            ref_value = cfg.search.phi_candidates[min(1, len(cfg.search.phi_candidates) - 1)]
            uniform = [
                engine.LayerSnnConfig(v_th=c.v_th, rho=c.rho, phi=int(ref_value))
                for c in configs
            ]
            run = engine.run_snn(
                model, uniform, cache.inputs, cfg.timesteps,
                membrane_init=cfg.membrane_init,
            )
            cap = search.energy_of(run.stats, em) / cache.sample_count
        else:
            cap = float(cfg.search.e_target)
        budget = search.SearchBudget("energy_cap", cap)
    with _stage("pareto-search"):
        plan = search.pareto_search(table, budget)
        search.save_plan(plan, art.plan_phi)
        planned = search.apply_plan(configs, plan)
        engine.save_configs(planned, plan.layers, art.configs_phi)
    feas = "feasible" if plan.feasible else "INFEASIBLE (cheapest plan written)"
    print(f"burst plan ({feas}): " + " ".join(
        f"layer{l}->phi{plan.choice[l]}" for l in plan.layers
    ))
    print(f"plan S={plan.s_sum:.6g} E={plan.e_sum:.6g} cap={budget.cap:.6g}")
    return 0


def cmd_search_rho(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    model, cache = _load_search_inputs(cfg, art, "search-rho")
    _require({"burst-plan configs": art.configs_phi}, "search-rho")
    configs = _load_configs(art.configs_phi, model)
    em = _energy_model(cfg)
    with _stage("sensitivity-table"):
        table = search.build_table(
            model, configs, cache, cfg.timesteps, "rho",
            candidates=cfg.search.rho_candidates, energy=em,
            membrane_init=cfg.membrane_init,
        )
        search.table_to_csv(table, art.sensitivity_rho)
    with _stage("budget"):
        if cfg.search.s_target == "auto":
            base = sum(table.s[(layer, 1)] for layer in table.layers) if 1 in table.candidates \
                else sum(table.s[(layer, table.candidates[0])] for layer in table.layers)
            cap = cfg.search.s_target_slack * base
        else:
            cap = float(cfg.search.s_target)
        budget = search.SearchBudget("sensitivity_cap", cap)
    with _stage("pareto-search"):
        plan = search.pareto_search(table, budget)
        search.save_plan(plan, art.plan_rho)
        planned = search.apply_plan(configs, plan)
        engine.save_configs(planned, plan.layers, art.configs_full)
    feas = "feasible" if plan.feasible else "INFEASIBLE (cheapest plan written)"
    print(f"compression plan ({feas}): " + " ".join(
        f"layer{l}->rho{plan.choice[l]}" for l in plan.layers
    ))
    print(f"plan S={plan.s_sum:.6g} E={plan.e_sum:.6g} cap={budget.cap:.6g}")
    return 0


def cmd_fit_exit(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    model, cache = _load_search_inputs(cfg, art, "fit-exit")
    configs, used = _best_configs(art, model)
    with _stage("fit-exit"):
        policy = early_exit.fit_exit_policy(
            model, configs, cache, cfg.t_max,
            alpha_base=cfg.exit.alpha_base, beta=cfg.exit.beta, delta=cfg.exit.delta,
            membrane_init=cfg.membrane_init,
        )
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
        images, labels = _eval_set(cfg, model)
    em = _energy_model(cfg)
    with _stage("eval-adaptive"):
        policy = early_exit.load_policy(art.policy) if os.path.exists(art.policy) else None
    rows = []
    with _stage("eval-fixed"):
        # one run answers the fixed horizon and the exit gate alike
        horizon = cfg.timesteps if policy is None else max(cfg.timesteps, policy.t_max)
        run = engine.run_snn(model, configs, images, horizon, membrane_init=cfg.membrane_init)
        acc, spikes, energy = _fixed_eval(model, run, cfg.timesteps, labels, em)
        rows.append(
            f"fixed,{cfg.timesteps},{acc!r},{float(cfg.timesteps)!r},{spikes!r},{energy!r}"
        )
    if trace:
        with _stage("spike-trace"):
            one = engine.run_snn(
                model, configs, images[:1], cfg.timesteps,
                membrane_init=cfg.membrane_init, record_trains=True,
            )
            engine.dump_trace(one, art.spike_trace)
    if policy is not None:
        with _stage("eval-adaptive"):
            adaptive = early_exit.apply_gate(model, run, policy, labels)
            energy = search.energy_of(adaptive.stats, em) / len(labels)
            rows.append(
                f"adaptive,{policy.t_max},{adaptive.accuracy!r},{adaptive.mean_exit_t!r},"
                f"{adaptive.stats.total_spikes / len(labels)!r},{energy!r}"
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


def _ablation_rows(cfg: RunConfig, art: Artifacts):
    """(variant, accuracy, energy, mean_t, spikes per input) for each variant.

    Each config set makes one eval-set run; its exit variant gates that run
    with a policy fitted at ``timesteps``, like for like with the fixed row.
    """
    model = store.load_model(art.calibrated)
    variants = [
        (name, _load_configs(path, model))
        for name, path in (
            ("baseline", art.configs_base),
            ("burst", art.configs_phi),
            ("burst+compress", art.configs_full),
        )
    ]
    cache = store.load_cache(art.cache)
    images, labels = _eval_set(cfg, model)
    em = _energy_model(cfg)
    n, T = len(labels), cfg.timesteps
    fixed, gated = [], []
    for name, configs in variants:
        # fit first, drop the run after: no two simulations are held at once
        policy = None if name == "baseline" else early_exit.fit_exit_policy(
            model, configs, cache, T,
            alpha_base=cfg.exit.alpha_base, beta=cfg.exit.beta, delta=cfg.exit.delta,
            membrane_init=cfg.membrane_init,
        )
        run = engine.run_snn(model, configs, images, T, membrane_init=cfg.membrane_init)
        acc, spikes, energy = _fixed_eval(model, run, T, labels, em)
        fixed.append((name, acc, energy, float(T), spikes))
        if policy is not None:
            tr = early_exit.apply_gate(model, run, policy, labels)
            energy = search.energy_of(tr.stats, em) / n
            gated.append(
                (f"{name}+exit", tr.accuracy, energy, tr.mean_exit_t, tr.stats.total_spikes / n)
            )
        del run
    return fixed + gated


def cmd_ablate(cfg: RunConfig) -> int:
    art = Artifacts(cfg.out_dir)
    _require(
        {
            "calibrated model": art.calibrated,
            "base configs": art.configs_base,
            "burst configs": art.configs_phi,
            "full configs": art.configs_full,
            "calibration cache": art.cache,
        },
        "ablate",
    )
    with _stage("ablate"):
        results = _ablation_rows(cfg, art)
        base_energy = results[0][2]
        rows = []
        for name, acc, energy, mean_t, spikes in results:
            delta = 0.0 if name == "baseline" else (energy - base_energy) / base_energy * 100.0
            rows.append(f"{name},{acc!r},{energy!r},{mean_t!r},{spikes!r},{delta!r}")
        store.write_atomic(
            art.ablation,
            ["variant,accuracy,energy,mean_t,spikes_per_input,energy_delta_pct", *rows],
        )
    print(f"ablation -> {art.ablation}")
    for row in rows:
        print("  " + row)
    return 0


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
        images, labels = _eval_set(cfg, model)
        em = _energy_model(cfg)
    with _stage("accuracy-curve"):
        run = engine.run_snn(
            model, configs, images, max(ACCURACY_CURVE_TIMESTEPS),
            membrane_init=cfg.membrane_init,
        )
        rows = []
        for t in ACCURACY_CURVE_TIMESTEPS:
            acc, spikes, energy = _fixed_eval(model, run, t, labels, em)
            rows.append(f"{t},{acc!r},{spikes!r},{energy!r}")
        store.write_atomic(
            art.accuracy_curve, ["timesteps,accuracy,spikes_per_input,energy", *rows]
        )
    with _stage("frontier"):
        rows = []
        for kind, path in (("phi", art.plan_phi), ("rho", art.plan_rho)):
            plan = search.load_plan(path)
            for s, e in sorted(set(plan.frontier)):
                rows.append(f"{kind},{s!r},{e!r}")
        store.write_atomic(art.frontier, ["kind,s_sum,e_sum", *rows])
    with _stage("exit-histogram"):
        policy = early_exit.load_policy(art.policy)
        exits = early_exit.load_exit_steps(art.exit_trace, policy.t_max)
        if len(exits) != len(labels):
            raise UserError(
                f"[exit-histogram] {art.exit_trace} holds {len(exits)} rows "
                f"for {len(labels)} eval inputs"
            )
        rows = [f"{t},{int(np.sum(exits == t))}" for t in range(1, policy.t_max + 1)]
        store.write_atomic(art.exit_histogram, ["exit_t,count", *rows])
    print(f"report bundle -> {art.report_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file")
    shared.add_argument("--seed", type=int, help="global RNG seed")
    shared.add_argument("--out", help="run directory for artifacts")
    shared.add_argument("--timesteps", type=int, help="simulation timesteps T")
    shared.add_argument("--mu", type=float, help="energy per unit spike, Joules")
    shared.add_argument(
        "--energy-mode", choices=["spike_count", "synop"], help="energy counting mode"
    )
    shared.add_argument("--e-target", help="energy cap for search-phi (number or 'auto')")
    shared.add_argument("--s-target", help="sensitivity cap for search-rho (number or 'auto')")
    shared.add_argument("--alpha-base", type=float, help="exit boundary floor")
    shared.add_argument("--beta", type=float, help="exit boundary amplitude")
    shared.add_argument("--delta", type=float, help="exit boundary entropy scale")

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
    "search-phi": cmd_search_phi,
    "search-rho": cmd_search_rho,
    "fit-exit": cmd_fit_exit,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
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
