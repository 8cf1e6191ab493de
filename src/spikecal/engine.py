"""Discrete-time integrate-and-fire simulation of converted nets.

Each relu in the source graph becomes a layer of spiking neurons with a
soft (subtractive) reset. At every timestep a neuron integrates its input
current, fires ``k = clip(floor(u / V_th), 0, phi)`` threshold quanta, and
keeps the remainder:

    u' = v + current
    emitted = k * V_th
    v' = u' - emitted

``V_th = rho * v_th`` is the effective threshold: raising ``rho`` compresses
a regular train into fewer, larger quanta, while ``phi`` caps how many quanta
may leave in a single step (burst firing). A quantum counts as one unit spike
regardless of amplitude, which is what the energy accounting uses.

The analog input batch is injected as a constant current every timestep, and
the dense head never spikes; its accumulated membrane divided by T is the
score vector. State is carried in float64 so charge bookkeeping stays exact
at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import store
from .nn import ModelGraph, Tensor, apply_layer

DEFAULT_MEMBRANE_INIT = 0.5


class ConfigMismatchError(ValueError):
    """Config list does not line up with the model's spiking layers."""


@dataclass(frozen=True)
class LayerSnnConfig:
    """Per-layer neuron parameters: base threshold, compression ratio, burst cap."""

    v_th: float
    rho: int = 1
    phi: int = 1

    def __post_init__(self):
        if not (0 < self.v_th < np.inf):
            raise ValueError(f"v_th must be positive and finite, got {self.v_th}")
        if not isinstance(self.rho, (int, np.integer)) or self.rho < 1:
            raise ValueError(f"rho must be an integer >= 1, got {self.rho!r}")
        if not isinstance(self.phi, (int, np.integer)) or self.phi < 1:
            raise ValueError(f"phi must be an integer >= 1, got {self.phi!r}")

    @property
    def threshold(self) -> float:
        """Effective firing threshold and quantum amplitude, rho * v_th."""
        return self.rho * self.v_th


@dataclass
class NeuronState:
    """Pre-spike potential ``u`` and post-reset potential ``v``."""

    u: np.ndarray
    v: np.ndarray


@dataclass
class RunStats:
    """Unit-spike counts and end-of-run bookkeeping for one simulation."""

    total_spikes: int
    layer_spikes: dict[int, int]
    layer_synops: dict[int, float]
    layer_residual: dict[int, float]
    timesteps: int


@dataclass
class SnnRun:
    """Everything a simulation produced; optional fields are None unless asked for."""

    scores: np.ndarray | None
    stats: RunStats
    rates: dict[int, np.ndarray]
    charge: dict[int, np.ndarray]
    emitted: dict[int, np.ndarray]
    v_first: dict[int, np.ndarray]
    v_last: dict[int, np.ndarray]
    trains: dict[int, list[np.ndarray]] | None = None  # per-step emissions
    step_scores: np.ndarray | None = None
    step_spikes: np.ndarray | None = None


def spiking_layer_indices(model: ModelGraph) -> list[int]:
    return [i for i, layer in enumerate(model.layers) if layer.kind == "relu"]


def layer_fanout(model: ModelGraph, layer_index: int) -> float:
    """Outgoing synapses per emitted quantum at a spiking layer.

    Counted at the next parameterized layer downstream; pooling and flatten
    are treated as synapse-free routing.
    """
    for layer in model.layers[layer_index + 1 :]:
        if layer.kind == "dense":
            return float(layer.out_features)
        if layer.kind == "conv2d":
            kh, kw = layer.kernel
            sh, sw = layer.stride
            return float(layer.out_channels * kh * kw) / float(sh * sw)
    return 1.0


def step_layer(
    state: NeuronState, input_current: np.ndarray, config: LayerSnnConfig
) -> tuple[NeuronState, np.ndarray]:
    """Advance one spiking layer a single timestep.

    Returns the new state and the emitted amplitudes (integer multiples of the
    effective threshold, at most ``phi`` quanta per neuron).
    """
    current = np.asarray(input_current, dtype=np.float64)
    if current.shape != state.v.shape:
        raise ConfigMismatchError(
            f"input current shape {current.shape} does not match state {state.v.shape}"
        )
    thr = config.threshold
    u = state.v + current
    k = np.clip(np.floor(u / thr), 0.0, float(config.phi))
    emitted = k * thr
    return NeuronState(u=u, v=u - emitted), emitted


def initial_state(config: LayerSnnConfig, shape, membrane_init: float) -> NeuronState:
    v0 = np.full(shape, membrane_init * config.threshold, dtype=np.float64)
    return NeuronState(u=v0.copy(), v=v0)


def run_snn(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    batch,
    timesteps: int,
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
    record_trains: bool = False,
    collect_steps: bool = False,
    stop_layer: int | None = None,
) -> SnnRun:
    """Simulate the converted net for ``timesteps`` steps of constant current.

    ``stop_layer`` truncates the per-step sweep after that layer index, which
    is how partial (prefix) rates are measured during calibration; score
    accumulation only happens on full runs. ``collect_steps`` additionally
    records cumulative scores and per-layer unit-spike counts after every
    step, which the early-exit runtime consumes.
    """
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    spiking = spiking_layer_indices(model)
    if len(configs) != len(spiking):
        raise ConfigMismatchError(
            f"model has {len(spiking)} spiking layers, got {len(configs)} configs"
        )
    position = {idx: p for p, idx in enumerate(spiking)}

    x0 = np.asarray(batch, dtype=np.float64)
    if x0.ndim == len(model.input_shape):
        x0 = x0[None]
    if tuple(x0.shape[1:]) != model.input_shape:
        raise ConfigMismatchError(
            f"batch shape {tuple(x0.shape[1:])} does not match model input {model.input_shape}"
        )
    n = x0.shape[0]

    layers = model.layers if stop_layer is None else model.layers[: stop_layer + 1]
    active = [i for i in spiking if i < len(layers)]
    full_run = stop_layer is None

    states: dict[int, NeuronState] = {}
    v_first: dict[int, np.ndarray] = {}
    charge: dict[int, np.ndarray] = {}
    emitted_sum: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {i: 0 for i in active}
    trains: dict[int, list[np.ndarray]] = {i: [] for i in active} if record_trains else {}
    out_acc: np.ndarray | None = None
    step_scores: list[np.ndarray] = []
    step_spikes = (
        np.zeros((timesteps, len(active), n), dtype=np.int64) if collect_steps else None
    )

    for t in range(timesteps):
        x = x0
        for i, layer in enumerate(layers):
            if layer.kind != "relu":
                x = apply_layer(layer, x)
                continue
            cfg = configs[position[i]]
            if t == 0:
                states[i] = initial_state(cfg, x.shape, membrane_init)
                v_first[i] = states[i].v.copy()
                charge[i] = np.zeros_like(x, dtype=np.float64)
                emitted_sum[i] = np.zeros_like(x, dtype=np.float64)
            state, emitted = step_layer(states[i], x, cfg)
            states[i] = state
            charge[i] += x
            emitted_sum[i] += emitted
            k_units = np.rint(emitted / cfg.threshold).astype(np.int64)
            counts[i] += int(k_units.sum())
            if collect_steps:
                step_spikes[t, position[i]] = k_units.reshape(n, -1).sum(axis=1)
            if record_trains:
                trains[i].append(emitted.copy())
            x = emitted
        if full_run:
            out_acc = x if out_acc is None else out_acc + x
            if collect_steps:
                step_scores.append(out_acc / float(t + 1))

    stats = RunStats(
        total_spikes=int(sum(counts.values())),
        layer_spikes={i: counts[i] for i in active},
        layer_synops={i: counts[i] * layer_fanout(model, i) for i in active},
        layer_residual={i: float(states[i].v.sum()) for i in active},
        timesteps=int(timesteps),
    )
    return SnnRun(
        scores=(out_acc / float(timesteps)) if full_run else None,
        stats=stats,
        rates={i: emitted_sum[i] / float(timesteps) for i in active},
        charge=charge,
        emitted=emitted_sum,
        v_first=v_first,
        v_last={i: states[i].v.copy() for i in active},
        trains=trains if record_trains else None,
        step_scores=np.stack(step_scores) if (collect_steps and full_run) else None,
        step_spikes=step_spikes,
    )


def rate_at_layer(
    model: ModelGraph,
    configs: list[LayerSnnConfig],
    batch,
    timesteps: int,
    layer_index: int,
    *,
    membrane_init: float = DEFAULT_MEMBRANE_INIT,
) -> np.ndarray:
    """Mean emitted amplitude of one spiking layer, simulating only its prefix."""
    if layer_index not in spiking_layer_indices(model):
        raise ConfigMismatchError(f"layer {layer_index} is not a spiking layer")
    run = run_snn(
        model, configs, batch, timesteps,
        membrane_init=membrane_init, stop_layer=layer_index,
    )
    return run.rates[layer_index]


def save_configs(configs: list[LayerSnnConfig], layers: list[int], path) -> None:
    """Persist per-layer neuron configs, labeled by graph layer index."""
    if len(configs) != len(layers):
        raise ConfigMismatchError(
            f"{len(configs)} configs for {len(layers)} spiking layers"
        )
    lines = ["format snnc-configs"]
    for idx, cfg in zip(layers, configs):
        lines.append(f"layer {idx} v_th {cfg.v_th!r} rho {cfg.rho} phi {cfg.phi}")
    store.write_atomic(path, lines)


def load_configs(path) -> tuple[list[LayerSnnConfig], list[int]]:
    """Configs and the graph layer index each line is labeled with."""
    doc = store.read_lines(path, "format snnc-configs")
    configs: list[LayerSnnConfig] = []
    layers: list[int] = []
    while doc.peek():
        idx, v_th, rho, phi = doc.take("layer", int, "v_th", float, "rho", int, "phi", int)
        with doc.check():
            configs.append(LayerSnnConfig(v_th=v_th, rho=rho, phi=phi))
        layers.append(idx)
    return configs, layers


def dump_trace(run: SnnRun, path, input_index: int = 0) -> None:
    """Write nonzero emissions of one input as CSV rows.

    Columns: layer, timestep, neuron_index, emitted_amplitude. Requires the
    run to have been made with ``record_trains=True``.
    """
    if run.trains is None:
        raise ValueError("run was made without record_trains=True")
    lines = ["layer,timestep,neuron_index,emitted_amplitude"]
    for layer_idx in sorted(run.trains):
        for t, emitted in enumerate(run.trains[layer_idx]):
            flat = emitted[input_index].reshape(-1)
            for neuron in np.nonzero(flat)[0]:
                lines.append(f"{layer_idx},{t + 1},{int(neuron)},{float(flat[neuron])!r}")
    store.write_atomic(path, lines)
