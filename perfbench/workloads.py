"""The benchmark's workloads: pipeline configs generated from a seed.

Each workload is a full ``spikecal`` run config. The program receives only
this config; it generates its own synthetic inputs from ``seed``, so the
same seed gives the same inputs and the same artifacts.
"""

from __future__ import annotations

import copy

WORKLOADS = {
    # The demo config (scripts/run_demo.py defaults). A wide first dense layer
    # on constant input, so first-layer work, per-call dtype casts and dataset
    # regeneration dominate; only two spiking layers, so search is cheap.
    "demo-mlp": {
        "timesteps": 4,
        "t_max": 8,
        "calib_samples": 256,
        "dataset": {"kind": "blobs", "n": 2000, "eval_n": 1000, "dim": [784], "classes": 10},
        "model": {"arch": "mlp", "hidden": [256, 128]},
        "train": {"epochs": 10, "lr": 0.05},
    },
    # Eight spiking layers, the most the exhaustive plan search enumerates.
    # Search and bias calibration dominate; the narrow input makes the first
    # layer cheap.
    "deep-search": {
        "timesteps": 8,
        "t_max": 8,
        "calib_samples": 512,
        "dataset": {"kind": "blobs", "n": 2000, "eval_n": 1000, "dim": [64], "classes": 10},
        "model": {"arch": "mlp", "hidden": [128] * 8},
        "train": {"epochs": 10, "lr": 0.02},
    },
    # The only conv/im2col/avgpool workload. Neuron updates outweigh synaptic
    # work, and the long exit horizon (t_max 32, mean exit near step 6) is
    # where wall-clock early exit would pay. Run by hand only, not listed in
    # BENCHMARK.json: a run takes about a minute, and its single-input
    # latency swung between 11.6 and 16.9 ms from one run to the next on a
    # shared 2-vCPU VM, beyond any bound the benchmark may set.
    "cnn-exit": {
        "timesteps": 8,
        "t_max": 32,
        "calib_samples": 256,
        "dataset": {
            "kind": "blobs", "n": 1000, "eval_n": 500, "dim": [1, 16, 16],
            "classes": 10, "separation": 24.0,
        },
        "model": {"arch": "cnn", "channels": [8, 16]},
        "train": {"epochs": 10, "lr": 0.05},
    },
}


# A few seconds per pipeline pass, same architectures and code paths; for the
# smoke test (``run.py --tiny``), never for measurements.
TINY = {
    "demo-mlp": {
        "calib_samples": 64,
        "dataset": {"n": 200, "eval_n": 50, "dim": [32], "classes": 4},
        "model": {"hidden": [16, 8]},
        "train": {"epochs": 8},
    },
    "deep-search": {
        "calib_samples": 64,
        "dataset": {"n": 200, "eval_n": 50, "dim": [16], "classes": 4},
        "model": {"hidden": [8] * 3},
        "train": {"epochs": 8, "lr": 0.05},
    },
    "cnn-exit": {
        "t_max": 8,
        "calib_samples": 64,
        "dataset": {"n": 200, "eval_n": 50, "dim": [1, 8, 8], "classes": 4},
        "model": {"channels": [2, 4]},
        "train": {"epochs": 8},
    },
}


def make_config(name: str, seed: int, out_dir: str, overrides: dict | None = None) -> dict:
    """The run config of workload ``name`` for ``seed``, writing into ``out_dir``.

    ``overrides`` replaces keys per section; the smoke test uses it to shrink
    a workload.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    config = copy.deepcopy(WORKLOADS[name])
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            config[key] = {**config.get(key, {}), **value}
        else:
            config[key] = value
    config["seed"] = int(seed)
    config["out_dir"] = out_dir
    return config
