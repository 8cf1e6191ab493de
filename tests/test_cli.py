import csv
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from spikecal import cli, nn, store


def write_config(tmp_path, **overrides):
    cfg = {
        "out_dir": str(tmp_path / "run"),
        "seed": 3,
        "timesteps": 8,
        "t_max": 8,
        "calib_samples": 96,
        "dataset": {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [32], "classes": 4},
        "model": {"hidden": [24, 16]},
        "train": {"epochs": 12, "lr": 0.05},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


ALL_STAGES = [
    "train", "convert", "search-phi", "search-rho", "fit-exit", "eval", "ablate", "report",
]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config, raw = write_config(tmp_path)
    for stage in ALL_STAGES:
        code = cli.main([stage, "--config", str(config)])
        assert code == 0, f"stage {stage} failed"
    return tmp_path, config, raw


def test_pipeline_produces_expected_artifacts(finished_run):
    tmp_path, config, raw = finished_run
    art = cli.Artifacts(raw["out_dir"])
    for path in [
        art.model, art.calibrated, art.cache, art.calibration_report,
        art.configs_base, art.configs_phi, art.configs_full,
        art.sensitivity_phi, art.sensitivity_rho, art.plan_phi, art.plan_rho,
        art.policy, art.train_report, art.eval_report, art.exit_trace,
        art.ablation, art.accuracy_curve, art.frontier, art.exit_histogram,
    ]:
        assert os.path.exists(path), f"missing {path}"


def test_eval_reports_both_modes(finished_run):
    _, _, raw = finished_run
    art = cli.Artifacts(raw["out_dir"])
    lines = open(art.eval_report).read().splitlines()
    assert lines[0] == "mode,timesteps,accuracy,mean_exit_t,spikes_per_input,energy"
    modes = [line.split(",")[0] for line in lines[1:]]
    assert modes == ["fixed", "adaptive"]
    fixed_acc = float(lines[1].split(",")[2])
    assert fixed_acc >= 0.9


def test_ablation_has_five_labeled_rows(finished_run):
    _, _, raw = finished_run
    art = cli.Artifacts(raw["out_dir"])
    lines = open(art.ablation).read().splitlines()
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "baseline", "burst", "burst+compress", "burst+exit", "burst+compress+exit",
    ]
    base_delta = float(lines[1].split(",")[-1])
    assert base_delta == 0.0


def test_report_curve_covers_grid(finished_run):
    _, _, raw = finished_run
    art = cli.Artifacts(raw["out_dir"])
    lines = open(art.accuracy_curve).read().splitlines()
    ts = [int(line.split(",")[0]) for line in lines[1:]]
    assert ts == list(cli.ACCURACY_CURVE_TIMESTEPS)


def test_rerun_is_idempotent(finished_run):
    tmp_path, config, raw = finished_run
    art = cli.Artifacts(raw["out_dir"])
    before = {p: open(p, "rb").read() for p in (art.configs_phi, art.plan_phi)}
    assert cli.main(["search-phi", "--config", str(config)]) == 0
    for p, blob in before.items():
        assert open(p, "rb").read() == blob


def _relabel(text):
    return text.replace("layer 1 ", "layer 7 ").replace("layer 3 ", "layer 9 ")


def _swap_last_two(text):
    lines = text.splitlines()
    lines[-2], lines[-1] = lines[-1], lines[-2]
    return "\n".join(lines) + "\n"


def _drop_last(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _overflow_threshold(text):
    """Line 2's v_th 1e+308 with rho 2: each value alone is in range, their product is not."""
    lines = text.splitlines(True)
    lines[1] = re.sub(r"v_th \S+ rho \d+", "v_th 1e+308 rho 2", lines[1])
    return "".join(lines)


def _tiny_threshold(text):
    """Line 2's v_th at the smallest subnormal float64: positive and finite,
    but a membrane divided by it overflows."""
    lines = text.splitlines(True)
    lines[1] = re.sub(r"v_th \S+", "v_th 5e-324", lines[1])
    return "".join(lines)


def _drop_beta(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("beta "))


def _set_last(key, value):
    """An edit putting ``value`` last on the first line that starts with ``key``."""
    def edit(text):
        lines = text.splitlines(True)
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} "))
        lines[i] = f"{lines[i].rsplit(' ', 1)[0]} {value}\n"
        return "".join(lines)
    return edit


# case -> (stage, artifact, edit, pattern the error message must match)
DAMAGE = {
    "truncated-configs": ("eval", "snn_configs_full.txt", lambda t: t[:-12],
                          r"snn_configs_full\.txt:3: "),
    "relabelled-configs": ("eval", "snn_configs_full.txt", _relabel, r"snn_configs_full\.txt"),
    "swapped-configs": ("eval", "snn_configs_full.txt", _swap_last_two, r"snn_configs_full\.txt"),
    "overflowing-threshold": ("eval", "snn_configs_full.txt", _overflow_threshold,
                              r"snn_configs_full\.txt:2: .*not finite"),
    "tiny-threshold": ("eval", "snn_configs_full.txt", _tiny_threshold,
                       r"snn_configs_full\.txt:2: v_th must be finite and at least "
                       r"1\.1754943508222875e-38 .*got 5e-324$"),
    "short-configs": ("search-rho", "snn_configs_phi.txt", _drop_last, r"snn_configs_phi\.txt"),
    "short-policy": ("eval", "exit_policy.txt", _drop_last, r"exit_policy\.txt:\d+: "),
    "policy-without-beta": ("eval", "exit_policy.txt", _drop_beta, r"exit_policy\.txt:3: "),
    # fit-exit writes finite floats only (1e999 reads as inf), and no negative entropy
    **{f"policy-{key}-{value}": ("eval", "exit_policy.txt", _set_last(key, value),
                                 rf"exit_policy\.txt:{line}: {key} must be finite.*, got -?inf$")
       for key, line in (("alpha_base", 2), ("beta", 3), ("delta", 4), ("mean_entropy", 7))
       for value in ("inf", "-inf", "1e999")},
    # alpha_base + beta * exp(...) overflows near the float64 maximum
    **{f"policy-{key}-{value}": ("eval", "exit_policy.txt", _set_last(key, value),
                                 rf"exit_policy\.txt:{line}: {key} must be finite and at most "
                                 rf"3\.4028234663852886e\+38 in magnitude \(the largest "
                                 rf"float32\), got {re.escape(shown)}$")
       for key, line in (("alpha_base", 2), ("beta", 3))
       for value, shown in (("1.7e308", "1.7e+308"), ("-1e39", "-1e+39"))},
    "policy-negative-entropy": (
        "eval", "exit_policy.txt", _set_last("mean_entropy", "-0.5"),
        r"exit_policy\.txt:7: mean_entropy must be finite and not negative, got -0\.5$",
    ),
    "truncated-plan": ("report", "plan_rho.txt", lambda t: t[:-9], r"plan_rho\.txt:\d+: "),
    "short-exit-trace": ("report", "exit_trace.csv", _drop_last, r"exit_trace\.csv"),
}


@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_artifact_is_user_error(finished_run, tmp_path, capsys, case):
    stage, name, edit, pattern = DAMAGE[case]
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    (out / name).write_text(edit((out / name).read_text()))
    config, _ = write_config(tmp_path, out_dir=str(out))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a warning is no diagnosis
        assert cli.main([stage, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(pattern, err), err


@pytest.mark.parametrize("source", ["config", "policy-file"])
def test_tiny_exit_delta_runs_without_a_warning(finished_run, tmp_path, capsys, source):
    """An exit delta of 5e-324, from the config or written into the policy
    file: every boundary off the entropy minimum takes its limit
    alpha_base, and no stage warns of an overflow."""
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    if source == "config":
        config, _ = write_config(tmp_path, out_dir=str(out), exit={"delta": 5e-324})
        stages = ("fit-exit", "eval", "ablate")
    else:
        config, _ = write_config(tmp_path, out_dir=str(out))
        policy = out / "exit_policy.txt"
        policy.write_text(_set_last("delta", "5e-324")(policy.read_text()))
        stages = ("eval", "report")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for stage in stages:
            assert cli.main([stage, "--config", str(config)]) == 0, stage
    assert capsys.readouterr().err == ""
    policy = cli.early_exit.load_policy(out / "exit_policy.txt")
    ebar = policy.mean_entropy
    assert policy.delta == 5e-324
    want = np.where(ebar == ebar.min(), policy.alpha_base + policy.beta, policy.alpha_base)
    assert policy.boundaries().tolist() == want.tolist()


@pytest.mark.parametrize("exit_settings, key", [
    ({"alpha_base": 1.7e308, "beta": 1.7e308}, "alpha_base"),
    ({"beta": 1.7e308}, "beta"),
    ({"alpha_base": -3.5e38}, "alpha_base"),
])
def test_exit_gate_values_past_float32_are_rejected(finished_run, tmp_path, capsys,
                                                    exit_settings, key):
    """An ``alpha_base`` or ``beta`` beyond the largest float32 in magnitude
    exits 1 at config load, naming the key, where both near the float64
    maximum made every boundary overflow to inf with a RuntimeWarning."""
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    config, _ = write_config(tmp_path, out_dir=str(out), exit=exit_settings)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["fit-exit", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    value = exit_settings[key]
    assert err == (f"error: config key {key!r} in exit must be at most 3.4028234663852886e+38 "
                   f"in magnitude, the largest float32, got {value!r}\n"), err


def test_near_silent_layers_convert_and_eval(finished_run, tmp_path, capsys):
    """A model whose spiking layers see activations of about 1e-40, below
    the smallest threshold a config takes: every fit falls back to its
    degenerate grid, and convert and eval exit 0 without a warning."""
    _, _, raw = finished_run
    model = store.load_model(cli.Artifacts(raw["out_dir"]).model).clone()
    for layer in model.layers[:-1]:
        if layer.parameterized:  # every tap of a hidden layer scales by 1e-40
            layer.bias = (layer.bias * np.float32(1e-40)).astype(np.float32)
    model.layers[0].weight = (model.layers[0].weight * np.float32(1e-40)).astype(np.float32)
    out = tmp_path / "silent"
    out.mkdir()
    art = cli.Artifacts(str(out))
    store.save_model(model, art.model)
    config, _ = write_config(tmp_path, out_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for stage in ("convert", "eval"):
            assert cli.main([stage, "--config", str(config)]) == 0, stage
    assert capsys.readouterr().err == ""
    taps = store.load_cache(art.cache).taps
    configs, _ = cli.engine.load_configs(art.configs_base)
    for (idx, tap), cfg in zip(sorted(taps.items()), configs):
        assert 0 < float(np.max(tap)) < 1e-38, idx
        assert cfg.v_th == 1e-3, idx  # the fallback grid's best for all-but-zero taps
    report = open(art.calibration_report).read()
    assert report.count("degenerate true") == len(configs) == 2


def test_missing_artifacts_listed_by_name(tmp_path):
    config, raw = write_config(tmp_path, out_dir=str(tmp_path / "empty"))
    code = cli.main(["report", "--config", str(config)])
    assert code == 1


def test_eval_before_convert_fails_cleanly(tmp_path, capsys):
    config, _ = write_config(tmp_path, out_dir=str(tmp_path / "none"))
    assert cli.main(["eval", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "calibrated model" in err


def test_report_names_every_missing_artifact(tmp_path, capsys):
    config, _ = write_config(tmp_path, out_dir=str(tmp_path / "nothing"))
    cli.main(["report", "--config", str(config)])
    err = capsys.readouterr().err
    for name in ("calibrated model", "burst plan", "compression plan", "exit policy"):
        assert name in err


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"out_dir": "x", "not_a_key": 1}))
    assert cli.main(["train", "--config", str(path)]) == 1


def test_unknown_section_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": {"kind": "blobs", "bogus": 2}}))
    assert cli.main(["train", "--config", str(path)]) == 1


@pytest.mark.parametrize("overrides, key", [
    ({"timesteps": "8"}, "'timesteps'"),
    ({"dataset": {"kind": "blobs", "n": "100", "eval_n": 50, "dim": [32], "classes": 4}}, "'n'"),
])
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, overrides, key):
    config, _ = write_config(tmp_path, **overrides)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert key in err and "must be int" in err


@pytest.mark.parametrize("overrides, message", [
    ({"membrane_init": float("nan")}, "'membrane_init' in top level must be a finite float"),
    ({"exit": {"alpha_base": float("nan")}}, "'alpha_base' in exit must be a finite float"),
    ({"search": {"s_target_slack": float("inf")}}, "'s_target_slack' in search must be a finite"),
    ({"model": {"hidden": [0]}}, "hidden must list one or more positive widths, got [0]"),
    ({"model": {"hidden": []}}, "hidden must list one or more positive widths, got []"),
    (
        {
            "model": {"arch": "cnn", "channels": [0]},
            "dataset": {"kind": "blobs", "n": 40, "eval_n": 20, "dim": [1, 6, 6], "classes": 4},
        },
        "channels must list one or more positive widths, got [0]",
    ),
    (
        {
            "model": {"arch": "cnn", "channels": [2, 2]},
            "dataset": {"kind": "blobs", "n": 40, "eval_n": 20, "dim": [1, 2, 2], "classes": 4},
        },
        "input shape (1, 2, 2) is too small for 2 pool-2 blocks",
    ),
    ({"dataset": {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [0], "classes": 4}},
     "config key 'dim' in dataset must be a non-empty list of sizes, each at least 1, got [0]"),
    ({"dataset": {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [], "classes": 4}},
     "config key 'dim' in dataset must be a non-empty list of sizes, each at least 1, got []"),
    ({"train": {"epochs": 12, "lr": -0.05}}, "config key 'lr' in train must be positive, got -0.05"),
    ({"train": {"epochs": 12, "lr": 0}}, "config key 'lr' in train must be positive, got 0"),
    # lr is used as np.float32(lr): 5e-324 rounds to 0, 1e308 overflows to inf
    *[({"train": {"epochs": 12, "lr": lr}},
       "config key 'lr' in train must be from 1.401298464324817e-45 to 3.4028234663852886e+38, "
       f"the positive float32 range, got {lr!r}") for lr in (5e-324, 1e308)],
    # a negative gap passes make_synthetic's check at once; 1e39 overflows the float32 blobs
    *[({"dataset": {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [32], "classes": 4,
                    "separation": sep}},
       "config key 'separation' in dataset must be from 0 to 3.4028234663852886e+38, "
       f"the largest float32, got {sep!r}") for sep in (-1.0, 1e39)],
    ({"exit": {"delta": 0}}, "config key 'delta' in exit must be positive, got 0"),
    ({"search": {"rho_candidates": [1, 1, 2]}},
     "config key 'rho_candidates' in search must be a non-empty list of distinct values, "
     "each at least 1, got [1, 1, 2]"),
    ({"search": {"phi_candidates": [0, 1]}}, "'phi_candidates' in search must be a non-empty"),
    ({"search": {"phi_candidates": []}}, "'phi_candidates' in search must be a non-empty"),
    ({"search": {"e_target": -1}}, "config key 'e_target' in search must be 'auto' or at least 0"),
    ({"search": {"s_target": "lots"}},
     "config key 's_target' in search must be 'auto' or at least 0, got 'lots'"),
    ({"model": {"arch": "transformer"}}, "config key 'arch' in model must be mlp or cnn"),
    # integers an artifact cannot hold (store.INT_MAX)
    ({"seed": 10 ** 19},
     "config key 'seed' in top level must be at most 999999999999999999, got 10000000000000000000"),
    ({"search": {"phi_candidates": [1, 10 ** 18]}},
     "config key 'phi_candidates' in search must be a list of values each at most "
     "999999999999999999, got [1, 1000000000000000000]"),
    ({"search": {"rho_candidates": [1, 10 ** 21]}},
     "config key 'rho_candidates' in search must be a list of values each at most"),
    *[({key: store.INT_MAX + 1}, f"config key {key!r} in top level must be at most "
       f"{store.INT_MAX}, got {store.INT_MAX + 1}")
      for key in ("timesteps", "t_max", "calib_samples", "grid_size")],
    *[({section: {**defaults, key: store.INT_MAX + 1}},
       f"config key {key!r} in {section} must be at most {store.INT_MAX}, got {store.INT_MAX + 1}")
      for section, defaults, keys in (
          ("dataset", {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [32], "classes": 4},
           ("n", "eval_n", "classes")),
          ("train", {"epochs": 12, "lr": 0.05}, ("epochs", "batch_size")),
      ) for key in keys],
    ({"dataset": {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [32, store.INT_MAX + 1],
                  "classes": 4}},
     f"config key 'dim' in dataset must be a list of values each at most {store.INT_MAX}"),
], ids=["nan-membrane-init", "nan-alpha-base", "inf-slack", "zero-width", "no-hidden-layer",
        "zero-channels", "cnn-input-too-small", "zero-dim", "empty-dim", "negative-lr", "zero-lr",
        "subnormal-lr", "overflowing-lr", "negative-separation", "overflowing-separation",
        "zero-delta", "repeated-rho", "zero-phi", "no-phi", "negative-e-target",
        "word-s-target", "unknown-arch", "huge-seed", "huge-phi", "huge-rho", "huge-timesteps",
        "huge-t-max", "huge-calib-samples", "huge-grid-size", "huge-n", "huge-eval-n",
        "huge-classes", "huge-epochs", "huge-batch-size", "huge-dim"])
def test_config_value_out_of_range_rejected(tmp_path, capsys, overrides, message):
    config, _ = write_config(tmp_path, **overrides)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("separation, offset", [(1e30, 64), (3.4028234663852886e38, 0)],
                         ids=["huge-separation", "largest-separation"])
def test_diverging_training_names_its_settings(tmp_path, capsys, separation, offset):
    """Blobs this far apart overflow the first products: training exits 1
    naming the input magnitude and the settings, and no numpy warning leaks."""
    config, _ = write_config(tmp_path, dataset={
        "kind": "blobs", "n": 300, "eval_n": 150, "dim": [32], "classes": 4,
        "separation": separation})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"error: \[train\] non-finite loss nan at epoch 0, batch offset {offset}; the largest "
        r"input magnitude is \d\.\d+e\+\d\d: lower dataset\.separation \(or rescale the inputs\) "
        r"or train\.lr\n", err), err


@pytest.mark.parametrize("overrides, key, where, least", [
    ({"timesteps": 0}, "timesteps", "top level", 1),
    ({"t_max": 0}, "t_max", "top level", 1),
    ({"calib_samples": 0}, "calib_samples", "top level", 1),
    ({"grid_size": 0}, "grid_size", "top level", 1),
    ({"dataset": {"kind": "blobs", "n": 0, "eval_n": 150, "dim": [32], "classes": 4}},
     "n", "dataset", 1),
    ({"dataset": {"kind": "blobs", "n": 300, "eval_n": 0, "dim": [32], "classes": 4}},
     "eval_n", "dataset", 1),
    ({"dataset": {"kind": "blobs", "n": 300, "eval_n": 150, "dim": [32], "classes": 1}},
     "classes", "dataset", 2),
    ({"train": {"epochs": 12, "lr": 0.05, "batch_size": 0}}, "batch_size", "train", 1),
    ({"train": {"epochs": -1, "lr": 0.05}}, "epochs", "train", 1),
    ({"seed": -1}, "seed", "top level", 0),
    ({"search": {"s_target_slack": -1.0}}, "s_target_slack", "search", 0),
], ids=["timesteps", "t-max", "calib-samples", "grid-size", "dataset-n", "eval-n",
        "one-class", "batch-size", "epochs", "seed", "slack"])
def test_config_size_below_minimum_rejected(tmp_path, capsys, overrides, key, where, least):
    config, _ = write_config(tmp_path, **overrides)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    message = f"config key {key!r} in {where} must be at least {least}, got"
    assert err.startswith("error: ") and message in err, err


def test_timesteps_flag_below_one_rejected(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--timesteps", "0"]) == 1
    err = capsys.readouterr().err
    assert "config key 'timesteps' in top level must be at least 1, got 0" in err, err


@pytest.mark.parametrize("energy, message", [
    ({"mu": 0}, "mu must be positive, got 0"),
    ({"mode": "x"}, "unknown energy mode 'x'"),
    ({"mu": 1e308}, "energy.mu = 1e+308 J per spike makes an energy of inf; lower energy.mu"),
    ({"mu": 1e308, "mode": "synop"}, "makes an energy of inf; lower energy.mu"),
], ids=["zero-mu", "unknown-mode", "overflowing-mu", "overflowing-mu-synop"])
def test_bad_energy_setting_is_user_error(finished_run, tmp_path, capsys, energy, message):
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    config, _ = write_config(tmp_path, out_dir=str(out), energy=energy)
    for stage in ("search-phi", "search-rho", "eval", "ablate", "report"):
        capsys.readouterr()
        assert cli.main([stage, "--config", str(config)]) == 1, stage
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (stage, err)


def _sensitivity(path, column):
    """A sensitivity CSV's S or E column keyed by (layer, candidate), in row order."""
    with open(path, newline="") as f:
        return {(int(row["layer"]), int(row["candidate"])): float(row[column])
                for row in csv.DictReader(f)}


@pytest.mark.parametrize("stage, flags", [
    ("search-phi", ["--e-target", "1"]),  # a given cap: the budget measures no energy
    ("search-rho", []),
])
def test_energy_overflowing_only_in_a_plan_total_is_user_error(finished_run, tmp_path, capsys,
                                                              stage, flags):
    # a mu where every layer's E is a float but the dearest plan's sum is not
    _, _, raw = finished_run
    e = _sensitivity(os.path.join(raw["out_dir"], f"sensitivity_{stage[-3:]}.csv"), "E")
    layers = dict.fromkeys(layer for layer, _ in e)
    dearest = [max(v for (at, _), v in e.items() if at == layer) for layer in layers]
    most, total = max(dearest), sum(dearest)
    assert total > 1.01 * most, dearest
    mu = cli.search.EnergyModel().mu * 2 * sys.float_info.max / (most + total)
    config, art = _copy_run(finished_run, tmp_path, energy={"mu": mu})
    capsys.readouterr()
    assert cli.main([stage, "--config", config, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "makes an energy of inf; lower energy.mu" in err, err


def test_largest_artifact_integer_is_accepted(tmp_path):
    config, _ = write_config(tmp_path, seed=store.INT_MAX,
                             search={"phi_candidates": [1, store.INT_MAX]})
    cfg = cli.load_config(config)
    assert cfg.seed == store.INT_MAX
    assert store._INT.fullmatch(str(store.INT_MAX))
    assert not store._INT.fullmatch(str(store.INT_MAX + 1))


def _copy_run(finished_run, tmp_path, **overrides):
    """A config over a copy of the finished run's artifacts, and the copy's Artifacts."""
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    config, _ = write_config(tmp_path, out_dir=str(out), **overrides)
    return str(config), cli.Artifacts(str(out))


@pytest.mark.parametrize("stage, flag, value, printed", [
    ("search-phi", "--e-target", "2.5e-9", "cap=2.5e-09"),
    ("search-rho", "--s-target", "0.75", "cap=0.75"),
])
def test_given_search_target_is_the_cap(finished_run, tmp_path, capsys, stage, flag, value,
                                        printed):
    config, art = _copy_run(finished_run, tmp_path)
    capsys.readouterr()
    assert cli.main([stage, "--config", config, flag, value]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].endswith(" " + printed), out
    assert cli.search.load_plan(art.path(f"plan_{stage[-3:]}.txt")).budget.cap == float(value)


@pytest.mark.parametrize("stage, flag", [("search-phi", "--e-target"), ("search-rho", "--s-target")])
def test_unreachable_search_target_writes_infeasible_plan(finished_run, tmp_path, capsys, stage,
                                                          flag):
    config, art = _copy_run(finished_run, tmp_path)
    capsys.readouterr()
    assert cli.main([stage, "--config", config, flag, "0"]) == 0
    out = capsys.readouterr().out
    assert "plan (INFEASIBLE (cheapest plan written)): " in out, out
    assert not cli.search.load_plan(art.path(f"plan_{stage[-3:]}.txt")).feasible


def test_auto_compression_cap_without_rho_one_uses_first_candidate(finished_run, tmp_path,
                                                                   capsys):
    config, art = _copy_run(finished_run, tmp_path, search={"rho_candidates": [4, 2]})
    capsys.readouterr()
    assert cli.main(["search-rho", "--config", config]) == 0
    out = capsys.readouterr().out
    s = _sensitivity(art.sensitivity_rho, "S")
    assert list(dict.fromkeys(cand for _, cand in s)) == [4, 2]
    layers = dict.fromkeys(layer for layer, _ in s)
    cap = 2.0 * sum(s[(layer, 4)] for layer in layers)  # default slack 2.0
    assert out.splitlines()[-1].endswith(f" cap={cap:.6g}"), out
    assert cli.search.load_plan(art.plan_rho).budget.cap == cap


def _other_layers(art):
    """plan_phi.txt with its choice lines moved to layers the model does not have."""
    text = open(art.plan_phi).read()
    return re.sub(r"^choice layer (\d+)", lambda m: f"choice layer {int(m[1]) + 100}", text,
                  flags=re.M)


@pytest.mark.parametrize("plan_text, message", [
    (_other_layers, r"is a phi plan for layers \[101, 103\], but report needs a phi plan "
                    r"for the spiking layers \[1, 3\]"),
    (lambda art: open(art.plan_rho).read(), r"is a rho plan for layers \[1, 3\], but "
                                            r"report needs a phi plan"),
], ids=["other-layers", "other-kind"])
def test_report_rejects_plan_from_another_run(finished_run, tmp_path, capsys, plan_text, message):
    config, art = _copy_run(finished_run, tmp_path)
    text = plan_text(art)
    with open(art.plan_phi, "w") as fh:
        fh.write(text)
    capsys.readouterr()
    assert cli.main(["report", "--config", config]) == 1
    err = capsys.readouterr().err
    assert re.search(message, err) and "plan_phi.txt" in err and "model_calibrated.snnc" in err, err


@pytest.mark.parametrize("stage", ["eval", "report"])
def test_policy_for_another_t_max_is_rejected(finished_run, tmp_path, capsys, stage):
    """A policy fitted for t_max 16, copied into a t_max 8 run, gates nothing."""
    config, art = _copy_run(finished_run, tmp_path, t_max=16)
    assert cli.main(["fit-exit", "--config", config]) == 0
    config = str(write_config(tmp_path, out_dir=art.out_dir)[0])  # back to t_max 8
    before = open(art.eval_report).read()
    capsys.readouterr()
    assert cli.main([stage, "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exit_policy.txt is a policy for t_max 16, but the " \
        "config's t_max is 8" in err, err
    assert open(art.eval_report).read() == before


def test_ablate_with_silent_baseline_writes_nan_deltas(finished_run, tmp_path, capsys):
    # the membrane starts so low that no layer reaches its threshold in T steps
    config, art = _copy_run(finished_run, tmp_path, membrane_init=-1e6)
    capsys.readouterr()
    assert cli.main(["ablate", "--config", config]) == 0, capsys.readouterr().err
    rows = [line.split(",") for line in open(art.ablation).read().splitlines()[1:]]
    assert [(row[0], row[2], row[5]) for row in rows] == [
        ("baseline", "0.0", "0.0"), ("burst", "0.0", "nan"), ("burst+compress", "0.0", "nan"),
        ("burst+exit", "0.0", "nan"), ("burst+compress+exit", "0.0", "nan"),
    ]


@pytest.fixture(scope="module")
def cnn_run(tmp_path_factory):
    """A tiny CNN run through ablate, with ``timesteps == t_max``."""
    tmp_path = tmp_path_factory.mktemp("cnn-pipeline")
    config, raw = write_config(
        tmp_path, timesteps=4, t_max=4, calib_samples=32,
        dataset={"kind": "blobs", "n": 120, "eval_n": 40, "dim": [1, 8, 8], "classes": 3,
                 "separation": 24.0},
        model={"arch": "cnn", "channels": [2, 3]}, train={"epochs": 3},
    )
    for stage in ALL_STAGES[:-1]:
        assert cli.main([stage, "--config", str(config)]) == 0, stage
    return tmp_path, config, raw


@pytest.mark.parametrize("run", ["finished_run", "cnn_run"])
def test_ablation_rows_equal_the_eval_rows_of_the_same_run(request, run):
    """``burst+compress`` is ``eval``'s fixed row (the full configs at T on
    the eval set), and with ``timesteps == t_max`` its exit row is the
    adaptive row: the MLP's layer-major runs on two lanes and the CNN's
    serial runs both give the time-major run's numbers."""
    _, _, raw = request.getfixturevalue(run)
    assert raw["timesteps"] == raw["t_max"]
    art = cli.Artifacts(raw["out_dir"])
    with open(art.ablation) as fh:
        ablation = {row["variant"]: row for row in csv.DictReader(fh)}
    with open(art.eval_report) as fh:
        evaluated = {row["mode"]: row for row in csv.DictReader(fh)}
    fixed, adaptive = evaluated["fixed"], evaluated["adaptive"]
    full, gated = ablation["burst+compress"], ablation["burst+compress+exit"]
    for key in ("accuracy", "spikes_per_input", "energy"):
        assert full[key] == fixed[key], key
        assert gated[key] == adaptive[key], key
    assert gated["mean_t"] == adaptive["mean_exit_t"]
    assert float(full["spikes_per_input"]) > 0


@pytest.mark.parametrize("error, code, start", [
    (MemoryError("Unable to allocate 8.00 EiB for an array"), 1,
     "error: [ablate] out of memory (Unable to allocate 8.00 EiB"),
    (cli.engine.ConfigMismatchError("3 configs for 2 spiking layers"), 2,
     "internal error: ConfigMismatchError: 3 configs for 2 spiking layers"),
])
def test_ablate_reports_an_error_of_a_policy_fit_on_the_helper(finished_run, tmp_path, capsys,
                                                               monkeypatch, error, code, start):
    """A policy-fit run that raises on the helper thread exits as the same
    error from ``run_snn`` does, and no thread outlives the stage."""
    config, art = _copy_run(finished_run, tmp_path)
    before = open(art.ablation, "rb").read()
    runner, run_snn, failed = cli.engine._layer_major, cli.early_exit.run_snn, []
    calib = finished_run[2]["calib_samples"]

    def failing(plan, start, source, *args):
        if len(source) == calib:
            failed.append(threading.current_thread() is not threading.main_thread())
            raise error
        return runner(plan, start, source, *args)

    def failing_serially(model, configs, batch, *args, **kwargs):
        if len(batch) == calib:
            raise error
        return run_snn(model, configs, batch, *args, **kwargs)

    monkeypatch.setattr(cli.engine, "_layer_major", failing)
    threads = threading.enumerate()
    capsys.readouterr()
    assert cli.main(["ablate", "--config", config]) == code
    assert threading.enumerate() == threads
    assert failed == [True]
    err = capsys.readouterr().err
    assert err.startswith(start), err
    assert open(art.ablation, "rb").read() == before
    # the serial path, which a CNN takes, fails the same way on the same error
    monkeypatch.setattr(cli.early_exit, "run_snn", failing_serially)
    monkeypatch.setattr(cli.engine, "_single_dense", lambda feed: False)
    assert cli.main(["ablate", "--config", config]) == code
    assert capsys.readouterr().err == err


def test_ablate_rejects_a_cache_of_another_model_before_any_thread(finished_run, tmp_path,
                                                                   capsys, monkeypatch):
    config, art = _copy_run(finished_run, tmp_path)
    other = nn.build_mlp(32, [24, 16], 4, seed=99)
    data = store.make_synthetic("blobs", 40, seed=0, classes=4, dim=32)
    store.save_cache(store.build_calibration_cache(other, data, 16, seed=0), art.cache)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    capsys.readouterr()
    assert cli.main(["ablate", "--config", config]) == 1
    assert started == []
    err = capsys.readouterr().err
    assert err.startswith("error: [ablate] cache was built for model "), err


def test_ablate_calls_every_public_function_on_the_main_thread(finished_run, tmp_path, thread_log):
    """``ablate``'s helper runs only the layer-major runner, on the
    calibration inputs; the eval-set runs and every public call stay on the
    main thread."""
    config, _ = _copy_run(finished_run, tmp_path)
    calls = thread_log((cli.early_exit, cli.engine, nn, cli.search), [cli.engine._layer_major])
    assert cli.main(["ablate", "--config", config]) == 0
    main = threading.get_ident()
    runs = [ident for name, ident in calls if name == "engine._layer_major"]
    assert len(runs) == 5 and runs.count(main) == 3 and len(set(runs)) == 2
    assert {"early_exit.apply_gate", "nn.apply_layer"} <= {name for name, _ in calls}
    assert all(ident == main for name, ident in calls if name != "engine._layer_major"), calls


def _write_idx(tmp_path, labels):
    images = tmp_path / "images.idx"
    images.write_bytes(
        struct.pack(">IIII", store.IDX_IMAGE_MAGIC, len(labels), 2, 2) + bytes(4 * len(labels))
    )
    label_file = tmp_path / "labels.idx"
    label_file.write_bytes(struct.pack(">II", store.IDX_LABEL_MAGIC, len(labels)) + bytes(labels))
    return {"kind": "idx", "idx_images": str(images), "idx_labels": str(label_file),
            "dim": [1, 2, 2], "classes": 4}, label_file


def _write_csv(tmp_path, labels):
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{label},1,2,3,4\n" for label in labels))
    return {"kind": "csv", "csv_path": str(path), "dim": [4], "classes": 4}, path


@pytest.mark.parametrize("write", [_write_idx, _write_csv], ids=["idx", "csv"])
def test_label_outside_classes_names_file_and_label(tmp_path, capsys, write):
    dataset, path = write(tmp_path, [0, 1, 2, 3] * 3 + [7])
    config, _ = write_config(tmp_path, dataset=dataset)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path}: label 7 outside 0..3" in err, err


def test_malformed_csv_names_file(tmp_path, capsys):
    dataset, path = _write_csv(tmp_path, [0, 1, 2, 3])
    path.write_text(path.read_text() + "1,2,x,4,5\n")
    config, _ = write_config(tmp_path, dataset=dataset)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: could not convert string 'x'"), err


def test_short_idx_header_names_file(tmp_path, capsys):
    dataset, _ = _write_idx(tmp_path, [0, 1, 2, 3] * 3)
    images = tmp_path / "images.idx"
    images.write_bytes(images.read_bytes()[:8])
    config, _ = write_config(tmp_path, dataset=dataset)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [load-dataset] {images}: image header holds 8 bytes"), err


def test_fractional_csv_label_names_file_and_row(tmp_path, capsys):
    dataset, path = _write_csv(tmp_path, [0, 1, 2, 3, 1.5])
    config, _ = write_config(tmp_path, dataset=dataset)
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: row 5: label 1.5 is not an integer" in err, err


def test_changed_class_count_is_user_error(finished_run, tmp_path, capsys):
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    dataset = {**raw["dataset"], "classes": 10}
    config, _ = write_config(tmp_path, out_dir=str(out), dataset=dataset)
    for stage in ("convert", "eval", "ablate", "report"):
        capsys.readouterr()
        assert cli.main([stage, "--config", str(config)]) == 1, stage
        err = capsys.readouterr().err
        assert "the model has 4 classes, dataset.classes is 10" in err, (stage, err)


def test_convert_with_changed_dim_is_user_error(finished_run, tmp_path, capsys):
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    dataset = {**raw["dataset"], "dim": [16]}
    config, _ = write_config(tmp_path, out_dir=str(out), dataset=dataset)
    capsys.readouterr()
    assert cli.main(["convert", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "dataset samples have shape (16,), the model takes (32,)" in err, err


def test_size_numpy_cannot_index_is_user_error(tmp_path, capsys):
    """A horizon within store.INT_MAX whose arrays numpy cannot index exits
    1, naming the stage and the size settings; numpy rejects the shape
    before it allocates anything."""
    config, _ = write_config(tmp_path, dataset={"kind": "blobs", "n": 100, "eval_n": 50,
                                                "dim": [8], "classes": 4},
                             model={"hidden": [8]}, train={"epochs": 1}, calib_samples=32)
    assert cli.main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    assert cli.main(["convert", "--config", str(config), "--timesteps", "999999999999999999"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [calibrate-biases] out of memory (array is too big"), err
    assert "lower the size settings: timesteps, t_max, calib_samples, grid_size" in err, err


@pytest.fixture(scope="module")
def three_layer_run(tmp_path_factory):
    """A trained 8-6-5 MLP (three spiking layers) and its config, before convert."""
    tmp_path = tmp_path_factory.mktemp("three-layers")
    config, raw = write_config(
        tmp_path, timesteps=4, calib_samples=24,
        dataset={"kind": "blobs", "n": 60, "eval_n": 30, "dim": [8], "classes": 3},
        model={"hidden": [8, 6, 5]}, train={"epochs": 2, "lr": 0.05},
    )
    assert cli.main(["train", "--config", str(config)]) == 0
    return config, raw


def _convert_failure(three_layer_run, monkeypatch, case):
    """Set up ``case`` of ``test_convert_labels_its_failures``; returns argv."""
    config, raw = three_layer_run
    argv = ["convert", "--config", str(config)]
    if case == "huge-grid":
        path = config.parent / "huge-grid.json"
        path.write_text(json.dumps({**raw, "grid_size": store.INT_MAX}))
        argv = ["convert", "--config", str(path)]
    elif case == "huge-timesteps":
        argv += ["--timesteps", str(store.INT_MAX)]
    elif case == "later-fit":
        third = cli.engine.spiking_layer_indices(store.load_model(cli.Artifacts(raw["out_dir"]).model))[2]
        score = cli.calibrate._score_grid

        def failing(fit):
            if fit.layer == third:
                raise MemoryError("Unable to allocate 8.00 EiB for an array")
            score(fit)

        monkeypatch.setattr(cli.calibrate, "_score_grid", failing)
    return argv


@pytest.mark.parametrize("case, code, start", [
    ("success", 0, ""),
    ("huge-grid", 1, "error: [fit-thresholds] out of memory (Unable to allocate 6.94 EiB"),
    ("huge-timesteps", 1, "error: [calibrate-biases] out of memory (array is too big"),
    ("later-fit", 1, "error: [fit-thresholds] out of memory (Unable to allocate 8.00 EiB"),
])
def test_convert_labels_its_failures(three_layer_run, capsys, monkeypatch, case, code, start):
    """convert's threshold fits overlap bias calibration, yet a failed fit
    is still a ``[fit-thresholds]`` error, also one on the third spiking
    layer after two layers' bias work, and a failed bias walk a
    ``[calibrate-biases]`` error; no thread outlives the stage."""
    argv = _convert_failure(three_layer_run, monkeypatch, case)
    run_layer, passes = cli.calibrate._run_layer, []

    def counted(*args, **kwargs):
        passes.append(args[1].v_th)
        return run_layer(*args, **kwargs)

    monkeypatch.setattr(cli.calibrate, "_run_layer", counted)
    threads = threading.enumerate()
    capsys.readouterr()
    assert cli.main(argv) == code
    assert threading.enumerate() == threads
    err = capsys.readouterr().err
    assert err.startswith(start), err
    if code:
        assert "lower the size settings: timesteps, t_max, calib_samples, grid_size" in err, err
    # bias passes begun, two per layer: every layer's, the first layer's first
    # (which fails), none before the first fit, and two layers' before the third fit
    assert len(passes) == {"success": 6, "huge-grid": 0, "huge-timesteps": 1, "later-fit": 4}[case]


def test_out_of_memory_inside_a_stage_is_user_error(finished_run, tmp_path, capsys, monkeypatch):
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    config, _ = write_config(tmp_path, out_dir=str(out))

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli.engine, "run_snn", exhausted)
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [eval-fixed] out of memory (Unable to allocate 8.00 EiB"), err
    assert "lower the size settings: timesteps, t_max" in err, err


def test_engine_fault_inside_a_stage_exits_2(finished_run, tmp_path, capsys, monkeypatch):
    _, _, raw = finished_run
    out = tmp_path / "copy"
    shutil.copytree(raw["out_dir"], out)
    config, _ = write_config(tmp_path, out_dir=str(out))

    def broken(*args, **kwargs):
        raise cli.engine.ConfigMismatchError("3 configs for 2 spiking layers")

    monkeypatch.setattr(cli.engine, "run_snn", broken)
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: ConfigMismatchError: 3 configs"), err


def test_flags_and_json_keys_give_equal_configs(tmp_path):
    flagged = {
        "--seed": ("5", None, "seed", 5),
        "--out": ("elsewhere", None, "out_dir", "elsewhere"),
        "--timesteps": ("3", None, "timesteps", 3),
        "--mu": ("1e-13", "energy", "mu", 1e-13),
        "--energy-mode": ("synop", "energy", "mode", "synop"),
        "--e-target": ("2.5e-9", "search", "e_target", 2.5e-9),
        "--s-target": ("0.75", "search", "s_target", 0.75),
        "--alpha-base": ("0.5", "exit", "alpha_base", 0.5),
        "--beta": ("0.1", "exit", "beta", 0.1),
        "--delta": ("2.5", "exit", "delta", 2.5),
    }
    assert set(flagged) == {row[0] for row in cli._FLAGS}
    config, raw = write_config(tmp_path)
    argv = ["train", "--config", str(config)]
    for flag, (text, section, key, value) in flagged.items():
        argv += [flag, text]
        (raw.setdefault(section, {}) if section else raw)[key] = value
    from_flags = cli.config_from_args(cli._build_parser().parse_args(argv))
    assert from_flags == cli.config_from_dict(raw)
    assert from_flags != cli.load_config(config)


def test_convert_simulates_the_calibration_set_once(tmp_path, monkeypatch):
    """Bias calibration's two passes step each spiking layer 2·T times, and
    the error breakdown reads their trains: no third run of T steps."""
    config, _ = write_config(
        tmp_path, timesteps=3, calib_samples=16,
        dataset={"kind": "blobs", "n": 40, "eval_n": 20, "dim": [8], "classes": 3},
        model={"hidden": [6, 5]}, train={"epochs": 1, "lr": 0.05},
    )
    assert cli.main(["train", "--config", str(config)]) == 0
    widths = []
    step = cli.engine.step_layer

    def counted(state, current, config):
        widths.append(state.v.shape[1])
        return step(state, current, config)

    monkeypatch.setattr(cli.engine, "step_layer", counted)
    assert cli.main(["convert", "--config", str(config)]) == 0
    assert sorted(widths) == [5] * 6 + [6] * 6


def test_compare_burst_caps_script_prints_five_rows():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_burst_caps.py")
    done = subprocess.run(
        [sys.executable, script, "--dim", "32", "--classes", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["config"]) + 1
    rows = lines[start:lines.index("", start)]
    assert [row.split()[0] for row in rows] == ["uniform"] * 4 + ["plan"], done.stdout


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert cli.main(["train", "--config", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file_rejected(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "ghost.json")]) == 1


def test_flags_override_config(tmp_path):
    config, raw = write_config(tmp_path)
    other_out = str(tmp_path / "flagged")
    code = cli.main([
        "train", "--config", str(config), "--out", other_out, "--seed", "3",
    ])
    assert code == 0
    assert os.path.exists(os.path.join(other_out, "model.snnc"))
    assert not os.path.exists(raw["out_dir"])


def test_target_flag_parsing(tmp_path):
    cfg = cli.RunConfig()
    assert cli._parse_target("auto", "--e-target") == "auto"
    assert cli._parse_target("1.5e-9", "--e-target") == pytest.approx(1.5e-9)
    with pytest.raises(cli.UserError):
        cli._parse_target("lots", "--e-target")


def test_bad_dataset_kind_is_user_error(tmp_path):
    config, _ = write_config(tmp_path, dataset={"kind": "mystery"})
    assert cli.main(["train", "--config", str(config)]) == 1


def test_two_full_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        config, _ = write_config(tmp_path, out_dir=str(out))
        for stage in ALL_STAGES:
            assert cli.main([stage, "--config", str(config)]) == 0
    files_a = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(out_a) for f in fs
    )
    assert files_a, "first run produced nothing"
    for path_a in files_a:
        rel = os.path.relpath(path_a, out_a)
        path_b = os.path.join(out_b, rel)
        assert os.path.exists(path_b), f"second run missing {rel}"
        assert open(path_a, "rb").read() == open(path_b, "rb").read(), rel
